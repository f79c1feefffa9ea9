package twostage

// SortBuiltReference exposes the sort-built reference construction to the
// external test package (sim_equivalence_test.go).
var SortBuiltReference = seqBuild
