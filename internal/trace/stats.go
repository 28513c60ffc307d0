package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarises a trace: event counts by kind, static footprint, and a
// coarse per-static-load pattern classification used by cmd/traceinfo to
// sanity-check generated workloads against the behaviours described in §2
// of the paper.
type Stats struct {
	Total    int64
	ByKind   [int(numKinds)]int64
	LoadIPs  int // distinct static loads
	TakenPct float64

	// Pattern classification of static loads by their dynamic address
	// sequence. A static load is classified by the strongest property its
	// sequence exhibits: Constant ⊂ Stride ⊂ Other.
	ConstantLoads int // same address every time (stride 0)
	StrideLoads   int // constant non-zero delta
	OtherLoads    int // anything else (context or irregular)
}

// String renders the stats as a small human-readable report.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d\n", s.Total)
	for k := Kind(0); k < numKinds; k++ {
		if s.ByKind[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-7s %12d\n", k, s.ByKind[k])
	}
	fmt.Fprintf(&b, "static loads: %d (constant %d, stride %d, other %d)\n",
		s.LoadIPs, s.ConstantLoads, s.StrideLoads, s.OtherLoads)
	if s.ByKind[KindBranch] > 0 {
		fmt.Fprintf(&b, "branch taken: %.1f%%\n", s.TakenPct*100)
	}
	return b.String()
}

// loadClass tracks the running classification of one static load.
type loadClass struct {
	count    int64
	last     uint32
	stride   int64
	constant bool
	strided  bool
}

// Collect consumes the whole source and returns its statistics.
func Collect(src Source) (*Stats, error) {
	s := &Stats{}
	loads := make(map[uint32]*loadClass)
	var taken int64
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		s.Total++
		s.ByKind[ev.Kind]++
		switch ev.Kind {
		case KindBranch:
			if ev.Taken {
				taken++
			}
		case KindLoad:
			c := loads[ev.IP]
			if c == nil {
				c = &loadClass{constant: true, strided: true}
				loads[ev.IP] = c
			}
			classify(c, ev.Addr)
		}
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	s.LoadIPs = len(loads)
	for _, c := range loads {
		switch {
		case c.constant:
			s.ConstantLoads++
		case c.strided:
			s.StrideLoads++
		default:
			s.OtherLoads++
		}
	}
	if s.ByKind[KindBranch] > 0 {
		s.TakenPct = float64(taken) / float64(s.ByKind[KindBranch])
	}
	return s, nil
}

func classify(c *loadClass, addr uint32) {
	defer func() { c.last = addr; c.count++ }()
	if c.count == 0 {
		return
	}
	delta := int64(addr) - int64(c.last)
	if delta != 0 {
		c.constant = false
	}
	if c.count == 1 {
		c.stride = delta
		return
	}
	if delta != c.stride {
		c.strided = false
	}
}

// TopLoads returns up to n static load IPs ordered by dynamic execution
// count, highest first. It consumes the source.
func TopLoads(src Source, n int) ([]uint32, []int64, error) {
	counts := make(map[uint32]int64)
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		if ev.Kind == KindLoad {
			counts[ev.IP]++
		}
	}
	if err := src.Err(); err != nil {
		return nil, nil, err
	}
	ips := make([]uint32, 0, len(counts))
	for ip := range counts {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool {
		if counts[ips[i]] != counts[ips[j]] {
			return counts[ips[i]] > counts[ips[j]]
		}
		return ips[i] < ips[j]
	})
	if len(ips) > n {
		ips = ips[:n]
	}
	out := make([]int64, len(ips))
	for i, ip := range ips {
		out[i] = counts[ip]
	}
	return ips, out, nil
}
