package pram

import (
	"fmt"

	"multiprefix/internal/core"
)

// Stats records the counted cost of one PRAM multiprefix execution,
// broken down by phase as in paper §3.
type Stats struct {
	StepsInit      int64
	StepsSpinetree int64
	StepsRowsums   int64
	StepsSpinesums int64
	StepsMultisums int64
	Work           int64
}

// TotalSteps sums the per-phase step counts.
func (s Stats) TotalSteps() int64 {
	return s.StepsInit + s.StepsSpinetree + s.StepsRowsums + s.StepsSpinesums + s.StepsMultisums
}

// Result is the output of RunMultiprefix.
type Result struct {
	Multi      []int64
	Reductions []int64
	Stats      Stats
}

// memory layout of the multiprefix program inside the machine:
//
//	[0, n)                 labels (input)
//	[n, 2n)                values (input)
//	[2n, 3n)               multi (output)
//	[3n, 3n+m+n)           spine    — the pivot arena of paper Fig 8/9
//	[3n+(m+n), ...)        rowsum
//	[...]                  spinesum
//	[...]                  isSpine markers
type layout struct {
	n, m     int
	labels   int
	values   int
	multi    int
	spine    int
	rowsum   int
	spinesum int
	isSpine  int
	words    int
}

func newLayout(n, m int) layout {
	arena := m + n
	l := layout{n: n, m: m}
	l.labels = 0
	l.values = n
	l.multi = 2 * n
	l.spine = 3 * n
	l.rowsum = l.spine + arena
	l.spinesum = l.rowsum + arena
	l.isSpine = l.spinesum + arena
	l.words = l.isSpine + arena
	return l
}

// RunMultiprefix executes the paper's multiprefix-PLUS algorithm on a
// p-processor simulated PRAM and returns the results plus the counted
// step/work cost. rowLength 0 selects ceil(sqrt(n)). seed drives the
// ARB winner choice; results are independent of it (tested).
//
// Policy discipline per phase, enforced by the simulator:
//
//	SPINETREE gather  — CREW  (concurrent read of bucket spines)
//	SPINETREE scatter — CRCW-ARB (the overwrite-and-test write)
//	everything else   — EREW
func RunMultiprefix[L core.Label](p int, values []int64, labels []L, m, rowLength int, seed int64) (*Result, error) {
	res, _, err := run(p, values, labels, m, rowLength, seed, true, false)
	return res, err
}

// RunMultireduce executes only the reduction part (multireduce, paper
// §4.2): the MULTISUMS phase is skipped entirely. Result.Multi is nil.
func RunMultireduce[L core.Label](p int, values []int64, labels []L, m, rowLength int, seed int64) (*Result, error) {
	res, _, err := run(p, values, labels, m, rowLength, seed, false, false)
	return res, err
}

// RunMultiprefixAudited is RunMultiprefix with access auditing: the
// returned Audit proves which phases issued concurrent accesses.
func RunMultiprefixAudited(p int, values []int64, labels []int, m, rowLength int, seed int64) (*Result, *Audit, error) {
	return run(p, values, labels, m, rowLength, seed, true, true)
}

func run[L core.Label](p int, values []int64, labels []L, m, rowLength int, seed int64, withMultisums, audited bool) (*Result, *Audit, error) {
	n := len(values)
	if len(labels) != n {
		return nil, nil, fmt.Errorf("pram: %d values, %d labels", n, len(labels))
	}
	for i, l := range labels {
		if l < 0 || int(l) >= m {
			return nil, nil, fmt.Errorf("pram: labels[%d]=%d outside [0,%d)", i, l, m)
		}
	}
	lay := newLayout(n, m)
	mach := New(p, lay.words, EREW, seed)
	var audit *Audit
	if audited {
		audit = mach.EnableAudit()
	}

	// Host loads the input (not counted, like reading from the host in
	// the paper's Cray runs).
	mem := mach.Mem()
	for i := 0; i < n; i++ {
		mem[lay.labels+i] = int64(labels[i])
		mem[lay.values+i] = values[i]
	}

	grid := core.NewGrid(n, rowLength)
	var stats Stats

	// INIT: bucket spine pointers to self; rowsum/spinesum/isSpine are
	// already zero (the PLUS identity) in fresh memory, but the
	// algorithm may not assume that, so clear them with counted writes.
	if err := initPhase(mach, lay); err != nil {
		return nil, nil, err
	}
	stats.StepsInit = mach.Steps()

	if err := spinetreePhase(mach, lay, grid); err != nil {
		return nil, nil, err
	}
	stats.StepsSpinetree = mach.Steps() - stats.StepsInit

	if err := rowsumsPhase(mach, lay, grid); err != nil {
		return nil, nil, err
	}
	stats.StepsRowsums = mach.Steps() - stats.StepsInit - stats.StepsSpinetree

	if err := spinesumsPhase(mach, lay, grid); err != nil {
		return nil, nil, err
	}
	stats.StepsSpinesums = mach.Steps() - stats.StepsInit - stats.StepsSpinetree - stats.StepsRowsums

	// Reduction = spinesum ⊕ rowsum per bucket (paper §4.2), snapshot
	// now because MULTISUMS goes on to mutate the bucket spinesums.
	reductions := make([]int64, m)
	for b := 0; b < m; b++ {
		reductions[b] = mem[lay.spinesum+b] + mem[lay.rowsum+b]
	}

	if withMultisums {
		if err := multisumsPhase(mach, lay, grid); err != nil {
			return nil, nil, err
		}
		stats.StepsMultisums = mach.TotalMinus(stats.StepsInit + stats.StepsSpinetree + stats.StepsRowsums + stats.StepsSpinesums)
	}
	stats.Work = mach.Work()

	res := &Result{
		Reductions: reductions,
		Stats:      stats,
	}
	if withMultisums {
		res.Multi = make([]int64, n)
		for i := 0; i < n; i++ {
			res.Multi[i] = mem[lay.multi+i]
		}
	}
	return res, audit, nil
}

// TotalMinus returns Steps() - x; a tiny helper so phase accounting
// reads uniformly.
func (m *Machine) TotalMinus(x int64) int64 { return m.Steps() - x }

func initPhase(m *Machine, lay layout) error {
	m.SetPolicy(EREW)
	arena := lay.m + lay.n
	// Processors load their element's label and value into local
	// registers: two counted EREW read steps.
	if lay.n > 0 {
		regAddrs := make([]int, lay.n)
		for i := range regAddrs {
			regAddrs[i] = lay.labels + i
		}
		if _, err := m.Read(regAddrs); err != nil {
			return fmt.Errorf("init load labels: %w", err)
		}
		for i := range regAddrs {
			regAddrs[i] = lay.values + i
		}
		if _, err := m.Read(regAddrs); err != nil {
			return fmt.Errorf("init load values: %w", err)
		}
	}
	// Bucket spines to self.
	addrs := make([]int, lay.m)
	vals := make([]int64, lay.m)
	for b := 0; b < lay.m; b++ {
		addrs[b] = lay.spine + b
		vals[b] = int64(b)
	}
	if err := m.Write(addrs, vals); err != nil {
		return fmt.Errorf("init spine: %w", err)
	}
	// Clear the three scratch regions.
	addrs = make([]int, arena)
	vals = make([]int64, arena)
	for _, base := range []int{lay.rowsum, lay.spinesum, lay.isSpine} {
		for k := 0; k < arena; k++ {
			addrs[k] = base + k
		}
		if err := m.Write(addrs, vals); err != nil {
			return fmt.Errorf("init scratch: %w", err)
		}
	}
	return nil
}

// spinetreePhase builds the spinetrees, rows top to bottom. The gather
// half-step is a concurrent read (CREW); the scatter half-step is the
// overwrite-and-test CRCW-ARB write.
func spinetreePhase(m *Machine, lay layout, grid core.Grid) error {
	mem := m.Mem()
	for r := grid.Rows - 1; r >= 0; r-- {
		lo, hi := grid.Row(r)
		k := hi - lo
		readAddrs := make([]int, k)
		writeAddrs := make([]int, k)
		arbAddrs := make([]int, k)
		arbVals := make([]int64, k)
		for j := 0; j < k; j++ {
			i := lo + j
			label := int(mem[lay.labels+i])
			readAddrs[j] = lay.spine + label
			writeAddrs[j] = lay.spine + lay.m + i
			arbAddrs[j] = lay.spine + label
			arbVals[j] = int64(lay.m + i)
		}
		m.SetPolicy(CREW)
		if err := m.ReadModifyWrite(readAddrs, writeAddrs, func(_ int, v int64) int64 { return v }); err != nil {
			return fmt.Errorf("spinetree gather row %d: %w", r, err)
		}
		m.SetPolicy(CRCWArb)
		if err := m.Write(arbAddrs, arbVals); err != nil {
			return fmt.Errorf("spinetree scatter row %d: %w", r, err)
		}
	}
	return nil
}

// column returns the element indices of grid column c.
func column(grid core.Grid, c int) []int {
	var idx []int
	for i := c; i < grid.N; i += grid.P {
		idx = append(idx, i)
	}
	return idx
}

// rowsumsPhase accumulates child values into parent rowsums, column by
// column, entirely under EREW (Theorem 1 guarantees distinct parents
// within a column; the simulator verifies it).
func rowsumsPhase(m *Machine, lay layout, grid core.Grid) error {
	m.SetPolicy(EREW)
	mem := m.Mem()
	for c := 0; c < grid.P; c++ {
		idx := column(grid, c)
		if len(idx) == 0 {
			continue
		}
		// Read each element's parent pointer.
		spineAddrs := make([]int, len(idx))
		for j, i := range idx {
			spineAddrs[j] = lay.spine + lay.m + i
		}
		parents, err := m.Read(spineAddrs)
		if err != nil {
			return fmt.Errorf("rowsums read spine col %d: %w", c, err)
		}
		// rowsum[parent] += value, and mark the parent as a spine
		// element; both EREW because parents are distinct.
		rsAddrs := make([]int, len(idx))
		markAddrs := make([]int, len(idx))
		ones := make([]int64, len(idx))
		for j := range idx {
			rsAddrs[j] = lay.rowsum + int(parents[j])
			markAddrs[j] = lay.isSpine + int(parents[j])
			ones[j] = 1
		}
		err = m.ReadModifyWrite(rsAddrs, rsAddrs, func(j int, v int64) int64 {
			return v + mem[lay.values+idx[j]]
		})
		if err != nil {
			return fmt.Errorf("rowsums update col %d: %w", c, err)
		}
		if err := m.Write(markAddrs, ones); err != nil {
			return fmt.Errorf("rowsums mark col %d: %w", c, err)
		}
	}
	return nil
}

// spinesumsPhase runs the spine recurrence, rows bottom to top, under
// EREW (Theorem 2 / Corollary 2 guarantee unique write targets).
func spinesumsPhase(m *Machine, lay layout, grid core.Grid) error {
	m.SetPolicy(EREW)
	mem := m.Mem()
	for r := 0; r < grid.Rows; r++ {
		lo, hi := grid.Row(r)
		// Each element reads its marker; participants forward
		// spinesum+rowsum to their parent.
		markAddrs := make([]int, hi-lo)
		for j := range markAddrs {
			markAddrs[j] = lay.isSpine + lay.m + lo + j
		}
		marks, err := m.Read(markAddrs)
		if err != nil {
			return fmt.Errorf("spinesums marks row %d: %w", r, err)
		}
		var readAddrs, writeAddrs []int
		var own []int
		for j, mk := range marks {
			if mk == 0 {
				continue
			}
			i := lo + j
			own = append(own, i)
			readAddrs = append(readAddrs, lay.spinesum+lay.m+i)
			writeAddrs = append(writeAddrs, lay.spinesum+int(mem[lay.spine+lay.m+i]))
		}
		if len(own) == 0 {
			continue
		}
		err = m.ReadModifyWrite(readAddrs, writeAddrs, func(j int, ownSpinesum int64) int64 {
			return ownSpinesum + mem[lay.rowsum+lay.m+own[j]]
		})
		if err != nil {
			return fmt.Errorf("spinesums update row %d: %w", r, err)
		}
	}
	return nil
}

// multisumsPhase distributes the final prefix values, column by
// column, under EREW.
func multisumsPhase(m *Machine, lay layout, grid core.Grid) error {
	m.SetPolicy(EREW)
	mem := m.Mem()
	for c := 0; c < grid.P; c++ {
		idx := column(grid, c)
		if len(idx) == 0 {
			continue
		}
		spineAddrs := make([]int, len(idx))
		for j, i := range idx {
			spineAddrs[j] = lay.spine + lay.m + i
		}
		parents, err := m.Read(spineAddrs)
		if err != nil {
			return fmt.Errorf("multisums read spine col %d: %w", c, err)
		}
		ssAddrs := make([]int, len(idx))
		multiAddrs := make([]int, len(idx))
		for j := range idx {
			ssAddrs[j] = lay.spinesum + int(parents[j])
			multiAddrs[j] = lay.multi + idx[j]
		}
		// multi[i] = spinesum[parent]
		if err := m.ReadModifyWrite(ssAddrs, multiAddrs, func(_ int, v int64) int64 { return v }); err != nil {
			return fmt.Errorf("multisums fetch col %d: %w", c, err)
		}
		// spinesum[parent] += value[i]
		err = m.ReadModifyWrite(ssAddrs, ssAddrs, func(j int, v int64) int64 {
			return v + mem[lay.values+idx[j]]
		})
		if err != nil {
			return fmt.Errorf("multisums update col %d: %w", c, err)
		}
	}
	return nil
}
