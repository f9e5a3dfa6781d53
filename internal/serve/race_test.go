//go:build race

package serve

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a share of what is put back, so allocation budgets that rely on warm pools
// do not hold under it.
const raceEnabled = true
