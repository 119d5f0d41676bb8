// The benchmark is a module of its own so that the repository's build
// never depends on it; the replace directive lets it reach the parent
// module's internal packages (its import path sits under the parent's).
module github.com/chu-data-lab/autofuzzyjoin-go/bench

go 1.24

require github.com/chu-data-lab/autofuzzyjoin-go v0.0.0

replace github.com/chu-data-lab/autofuzzyjoin-go => ../
