package mathx

// Welford keeps a running mean in a single numerically-stable pass.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
}

// Add incorporates x into the running mean.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// Mean returns the running mean, or 0 before any samples.
func (w *Welford) Mean() float64 { return w.mean }
