package prog

// BuildGuardTable is buildITable for the external tests: the span table
// lowering merges from a row list.
var BuildGuardTable = buildITable
