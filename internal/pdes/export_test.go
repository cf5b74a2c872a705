package pdes

// Coalesced exposes the skipped-commit count to the external test package
// (coalesced_test.go imports internal/trace, which imports this package).
func (c *Coordinator) Coalesced() int { return c.coalesced }
