//go:build race

package sta

// raceEnabled gates the allocation budgets: the race detector's
// instrumentation allocates and sync.Pool drops cached items under it.
const raceEnabled = true
