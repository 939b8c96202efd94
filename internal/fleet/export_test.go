package fleet

// MapsFilled reports whether the published generation's legacy maps have
// been filled, for the external tests that drive the HTTP readers.
func (c *Controller) MapsFilled() bool {
	g := c.snaps.published.Load()
	return g != nil && g.filled.Load()
}
