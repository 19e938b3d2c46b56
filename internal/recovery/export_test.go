package recovery

// Parses returns how many times a log region has been parsed (Parse plus
// stale re-parses) since the process started.
func Parses() int64 { return parses.Load() }
