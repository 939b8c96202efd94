// Package cpufeat is the one CPU-feature probe of the program: it asks the
// processor (CPUID) and the operating system (XGETBV) once, at start-up,
// which vector extensions the assembly kernels may use. The SVM kernels
// (internal/svm) and the power curve (internal/thermal) both read it.
//
// Only amd64 builds without the noasm tag have the probe; on every other
// build the package is empty, and nothing imports it there: the callers'
// portable files take their portable paths.
package cpufeat
