package bside

// DisableMemoryTier makes a's cache bypass the process-wide memory
// tier, so the warm-lookup benchmarks price the loose and pack tiers'
// first touch. No-op without a CacheDir.
func DisableMemoryTier(a *Analyzer) {
	if a.cache != nil {
		a.cache.DisableMemoryTier()
	}
}
