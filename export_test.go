package vertigo

import "vertigo/internal/core"

// RunResult runs cfg as Run does and returns the internal result, whose
// Summary a test compares a Report with.
func RunResult(cfg Config) (*core.Result, error) {
	cc, err := cfg.lower()
	if err != nil {
		return nil, err
	}
	return core.Run(cc)
}
