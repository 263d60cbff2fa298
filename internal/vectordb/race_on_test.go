//go:build race

package vectordb_test

const raceEnabled = true
