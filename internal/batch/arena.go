package batch

// slabElems is the default slab size in elements. One slab holds 64Ki
// values (512KiB for int64) — large enough that a typical operator output
// costs zero allocations once the arena is warm, small enough that a run
// over tiny tables does not pin megabytes.
const slabElems = 1 << 16

// slabs is a bump allocator over a list of reusable slabs of one element
// type. Alloc carves from the current slab and appends a fresh slab (sized
// max(slabElems, n)) only when nothing already held fits; reset rewinds the
// carve pointer without releasing the slabs, so steady-state allocation is
// pointer arithmetic.
type slabs[T int64 | int32] struct {
	all   [][]T
	cur   int // slab being carved
	off   int // carve offset within all[cur]
	elems int // elements in all
}

func (s *slabs[T]) alloc(n int) []T {
	if n == 0 {
		// Empty, not nil: a nil selection vector means every row is live.
		return []T{}
	}
	for s.cur < len(s.all) {
		if slab := s.all[s.cur]; s.off+n <= len(slab) {
			out := slab[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
		s.cur++
		s.off = 0
	}
	slab := make([]T, max(n, slabElems))
	s.all, s.elems = append(s.all, slab), s.elems+len(slab)
	s.off = n
	return slab[:n:n]
}

func (s *slabs[T]) reset() { s.cur, s.off = 0, 0 }

// Arena is a slab allocator for column vectors and selection vectors. The
// engine allocates every operator-lifetime vector from an arena and hands
// it back to PutArena, which resets it, when the owning scope (a block
// attempt) ends, so a run's steady-state allocation count is independent
// of row count.
//
// Lifetime rule: nothing allocated from an arena may outlive its reset.
// Everything that crosses an arena boundary — block outputs, materialized
// tables, reject links, statistic values — leaves in memory of its own: the
// index vectors Reads returns, the values the engine copies into a late
// table, the statistic stores.
//
// An Arena is not safe for concurrent use; blocks running concurrently take
// one each.
type Arena struct {
	i64 slabs[int64]
	i32 slabs[int32]
}

// Int64 returns an uninitialized int64 vector of length n, valid until
// the arena is reset. The vector has full capacity n and must not be appended to.
func (a *Arena) Int64(n int) []int64 { return a.i64.alloc(n) }

// Int32 returns an uninitialized int32 vector (selection vectors, row
// indexes) of length n, valid until the arena is reset.
func (a *Arena) Int32(n int) []int32 { return a.i32.alloc(n) }

// reset reclaims every vector handed out since the last reset, keeping the
// slabs for reuse.
func (a *Arena) reset() {
	a.i64.reset()
	a.i32.reset()
}

// arenas recycles arenas, and so their slabs, across block attempts and
// runs. A sync.Pool lost most of them to the row build the scheduler runs
// after each block (data.Late.Table), whose collections and goroutine
// hand-offs emptied it. An arena of more than maxArenaElems is dropped, so
// one huge block does not pin its memory.
var arenas = make(chan *Arena, 8)

const maxArenaElems = 1 << 23

// GetArena returns a reset arena from the free list, or a new one.
func GetArena() *Arena {
	select {
	case a := <-arenas:
		return a
	default:
		return new(Arena)
	}
}

// PutArena resets the arena and hands it back to the free list. The caller
// must not retain any vector allocated from it.
func PutArena(a *Arena) {
	a.reset()
	if a.i64.elems+a.i32.elems <= maxArenaElems {
		select {
		case arenas <- a:
		default:
		}
	}
}
