package flow

// Shield runs fn behind the stage runner's panic barrier, for work that
// executes outside a pipeline (suite workers, netlist generation, result
// bookkeeping): a panic surfaces as a *Error attributed to (design,
// config, stage) wrapping a *PanicError, instead of unwinding the
// caller's goroutine. A *PanicError panicking through a nested barrier
// is passed through so the original stack survives.
//
// This is the only sanctioned way to recover outside internal/fault and
// internal/flow — the recoverbare vet pass flags naked recover() calls
// elsewhere so every swallowed panic keeps its attribution.
func Shield(design, config, stage string, fn func() error) error {
	var outside *Context // no stage metric to count the panic into
	err := outside.guard(fn)
	if pe, ok := err.(*PanicError); ok {
		return &Error{Design: design, Config: config, Stage: stage, Err: pe}
	}
	return err
}
