package prog

// BuildGuardTable is buildGuardTable for the external tests: the span table
// lowering merges from a row list, through buildITable.
var BuildGuardTable = buildGuardTable
