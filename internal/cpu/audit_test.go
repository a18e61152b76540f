package cpu

// AuditHomes arms the home-mirror invariant on c: every compare untaint
// that writes through to a live register home first checks that the home
// bytes still hold the register's value. The returned function reports
// how many write-throughs were audited and the first stale home found.
// Defined in a test file, so only tests (this package's and cpu_test's)
// can arm it.
func AuditHomes(c *CPU) func() (uint64, error) {
	a := new(homeAudit)
	c.homeAudit = a
	return func() (uint64, error) { return a.checked, a.stale }
}
