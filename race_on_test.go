//go:build race

package rasql_test

const raceEnabled = true
