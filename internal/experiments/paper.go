package experiments

// The paper's own numbers (Section 7), in one place: the tables print them
// next to the measured values, and nothing else restates them.

// paperData is the Section 7 data-characteristics table: cardinality and
// unique-value count of the source relations, as Max, Min, Mean, Median.
var paperData = [4][2]int64{
	{417874, 417874},
	{3342, 102},
	{104466, 65768},
	{52234, 6529},
}

// paperIdentifyMS is Figure 10's bound: statistics identification
// finished "within 100 ms for all the workflows".
const paperIdentifyMS = 100

// Figure 11's anecdotes, in memory units.
const (
	// wf03's optimum without and with union–division.
	paperWF03Plain, paperWF03UD = 1811197, 29922
	// wf16's optimum, read off the figure ("≈").
	paperWF16 = 70000
	// wf23's optimum, and what its union–division variant would cost had
	// the solver chosen it.
	paperWF23, paperWF23UDVariant = 3444, 6951
	// The largest optimum in the figure, read off its axis ("≈").
	paperMaxMemory = 1800000
)

// Figure 12's anecdotes: the formula lower bound on executions and the
// hand-constructed re-ordering sequence's length, for the 8-way wf21 and
// the 6-way wf30 (wf21's sequence is reported only as "> 70"), and the one
// execution a linear flow needs.
const (
	paperWF21Bound, paperWF21Found = 41, 70
	paperWF30Bound, paperWF30Found = 14, 18
	paperLinear                    = 1
)
