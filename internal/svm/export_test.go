package svm

// SetEvalHook makes f see every Kernel.Eval call until restore is called,
// for the tests of package svm_test.
func SetEvalHook(f func(k Kernel, x, z []float64)) (restore func()) {
	evalHook = f
	return func() { evalHook = nil }
}
