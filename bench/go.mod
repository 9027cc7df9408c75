// The benchmark is a module of its own so that it builds from its own
// build file; the module path keeps it inside the repro/ import tree,
// which is what lets it import repro/internal/... from outside.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
