//go:build !linux

package bench

func fsType(string) string { return "unknown" }
