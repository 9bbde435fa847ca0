//go:build !amd64

package code2vec

// cpuTiers lists the kernel tiers this CPU can run: pure Go alone off amd64.
func cpuTiers() []kernelTier { return []kernelTier{goTier} }
