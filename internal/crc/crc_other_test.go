//go:build !amd64

package crc

// kernels names the one path Update has off amd64: the slicing tables,
// and hash/crc32 for FCS-32 from 64 octets.
func kernels() []string { return []string{"portable"} }

// useKernel selects kernel k; there is nothing to select.
func useKernel(k string) (restore func()) { return func() {} }
