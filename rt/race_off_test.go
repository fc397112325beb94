//go:build !race

package rt

// raceBuild reports a -race build (see race_on_test.go).
const raceBuild = false
