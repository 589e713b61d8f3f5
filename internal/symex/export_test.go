package symex

// PooledSites returns the pooled slice a run collected its site states
// in, nil when no path reached the site. It stays valid after Release,
// so a test can inspect what the pool holds.
func PooledSites(res *Result) *[]*State { return res.sites }
