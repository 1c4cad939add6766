package nfold

// Template carries solver state that is reusable across a family of related
// N-fold solves — in the PTAS, the probes of one makespan-guess search,
// which differ only in guess-dependent right-hand sides, bounds and a few
// block coefficients. One Template is shared by every probe of a search,
// which run one after another: it is not safe for concurrent use. Cached
// values are immutable.
//
// It caches the augmentation engine's per-brick move sets, keyed by the
// identity of the brick's block arrays. Builders that share block backing
// arrays across bricks (and across guesses — see internal/ptas templates)
// make move enumeration, formerly ~half of a probe's runtime, an
// O(distinct blocks) cost instead of O(bricks × guesses). (Cross-probe
// root-basis reuse was also tried here and removed: see runBranchBound.)
type Template struct {
	moves map[brickCacheKey]*brickMoves
}

// NewTemplate returns an empty template. Pass it via Options.Template to
// every solve in the family that should share it.
func NewTemplate() *Template { return &Template{moves: make(map[brickCacheKey]*brickMoves)} }
