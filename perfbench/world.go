package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"spider/internal/core"
	"spider/internal/lmm"
	"spider/internal/sim"
	"spider/internal/stats"
)

// outcome is what one simulated world produced, read after the run from
// the public results and each layer's public Stats(). Every field is a
// pure function of the world's seed and inputs, so two runs of one seed
// must agree on all of it (the digest check).
type outcome struct {
	SimSecs float64

	// Modelled, sim-time results.
	JoinDurs     []float64 // completed joins' TotalDur, seconds
	JoinsStarted int
	JoinsDone    int
	FailAssoc    int
	FailDHCP     int
	FailPing     int
	CacheHits    int
	LinkSecs     int // client-seconds with at least one established link
	AliveSecs    int // client-seconds sampled at all
	GoodputBytes int64
	PerClientKBs []float64
	ConnSum      float64 // sum of per-client data-connectivity fractions
	Clients      int

	// Per-layer counters.
	EventsFired   uint64
	FramesSent    uint64
	Delivered     uint64
	Collisions    uint64
	UnicastFailed uint64
	AirtimeNS     map[int]int64 // committed airtime per channel
	Switches      uint64
	ProbesSent    uint64
	TxQueued      uint64
	TxDrops       uint64
	PoolRefusals  int
	IPAMAllocs    int64
	IPAMFailovers int64
	IPAMReclaimed int64
	IPAMRefused   int64
	TelWindows    int
	SampledOut    int64
	Evicted       int64
}

// readOutcome folds a finalized scenario's results into an outcome and
// checks the join-record invariants; a broken invariant is an error.
func readOutcome(scn *core.Scenario, results []core.Result) (outcome, error) {
	o := outcome{Clients: len(results), AirtimeNS: map[int]int64{}}
	o.SimSecs = scn.Engine().Now().Seconds()
	o.EventsFired = scn.Engine().Fired()
	for _, r := range results {
		for _, j := range r.Joins {
			switch j.Stage {
			case lmm.StageComplete:
				if j.TotalDur <= 0 || j.AssocDur+j.DHCPDur > j.TotalDur {
					return o, fmt.Errorf("client %d: completed join with assoc %v + dhcp %v > total %v",
						r.ClientID, j.AssocDur, j.DHCPDur, j.TotalDur)
				}
				o.JoinDurs = append(o.JoinDurs, j.TotalDur.Seconds())
			case lmm.StageAssocFailed:
				o.FailAssoc++
			case lmm.StageDHCPFailed:
				o.FailDHCP++
			case lmm.StagePingFailed:
				o.FailPing++
			}
		}
		if r.LMM.JoinsComplete != countComplete(r.Joins) || len(r.Joins) > r.LMM.JoinsStarted {
			return o, fmt.Errorf("client %d: lmm stats (%d started, %d complete) disagree with %d join records",
				r.ClientID, r.LMM.JoinsStarted, r.LMM.JoinsComplete, len(r.Joins))
		}
		o.JoinsStarted += r.LMM.JoinsStarted
		o.JoinsDone += r.LMM.JoinsComplete
		o.CacheHits += r.LMM.CacheHits
		for k, n := range r.LinkSeconds {
			o.AliveSecs += n
			if k > 0 {
				o.LinkSecs += n
			}
		}
		o.GoodputBytes += r.BytesReceived
		o.PerClientKBs = append(o.PerClientKBs, r.ThroughputKBps)
		o.ConnSum += r.Connectivity
		o.Switches += r.Driver.Switches
		o.ProbesSent += r.Driver.ProbesSent
		o.TxQueued += r.Driver.TxQueued
		o.TxDrops += r.Driver.TxQueueDrops
	}
	if len(results) > 0 {
		m := results[0].Medium
		o.FramesSent, o.Delivered, o.Collisions, o.UnicastFailed = m.FramesSent, m.FramesDelivered, m.Collisions, m.UnicastFailed
		for ch, at := range m.AirtimeByChannel {
			o.AirtimeNS[int(ch)] = int64(at)
		}
	}
	o.PoolRefusals = scn.DHCPPoolExhausted()
	st := scn.IPAM().Stats()
	o.IPAMAllocs, o.IPAMFailovers, o.IPAMReclaimed, o.IPAMRefused = st.Allocs, st.Failovers, st.Reclaimed, st.Exhausted+st.Conflicts
	if tel := scn.Telemetry(); tel != nil {
		o.TelWindows = len(tel.Windows()) + int(tel.DroppedWindows())
		fc := tel.FlightCounters()
		o.SampledOut = fc.EventsSampledOut + fc.SpansSampledOut
		o.Evicted = fc.EventsEvicted + fc.SpansEvicted
	}
	return o, nil
}

func countComplete(js []lmm.JoinRecord) int {
	n := 0
	for _, j := range js {
		if j.Stage == lmm.StageComplete {
			n++
		}
	}
	return n
}

// digest hashes the whole outcome; equal seeds must give equal digests.
func (o outcome) digest() uint64 {
	h := fnv.New64a()
	chs := make([]int, 0, len(o.AirtimeNS))
	for ch := range o.AirtimeNS {
		chs = append(chs, ch)
	}
	sort.Ints(chs)
	air := o.AirtimeNS
	o.AirtimeNS = nil
	fmt.Fprintf(h, "%+v", o)
	for _, ch := range chs {
		fmt.Fprintf(h, "|%d:%d", ch, air[ch])
	}
	return h.Sum64()
}

// backlogRatio is the largest per-channel committed airtime divided by
// elapsed sim time. Above 1 the channel's implicit FIFO runs behind the
// clock; it is reported, never gated.
func (o outcome) backlogRatio() float64 {
	worst := 0.0
	for _, at := range o.AirtimeNS {
		if r := float64(at) / 1e9 / o.SimSecs; r > worst {
			worst = r
		}
	}
	return worst
}

// modelled is the sim-time result of one or more worlds pooled together.
type modelled struct {
	joinP50, joinP95, joinSuccess, linkUptime float64
	goodputKbps, jain, connectivity           float64
	joins                                     int
}

// pool combines outcomes: join durations and client-seconds pool across
// worlds; goodput is the mean aggregate rate per world. Join success is
// completed ÷ started joins summed over the worlds. On the collapsed
// corridor each world completes only ~20 joins, so a per-world ratio is
// coarse and the median of 32 of them moved by 12% between seeds; the
// pooled ratio moves by 5%.
func pool(os []outcome) modelled {
	var m modelled
	var durs, perClient []float64
	var link, alive, clients, started, done int
	var bytes, simSecs, conn float64
	for _, o := range os {
		durs = append(durs, o.JoinDurs...)
		perClient = append(perClient, o.PerClientKBs...)
		started += o.JoinsStarted
		done += o.JoinsDone
		link += o.LinkSecs
		alive += o.AliveSecs
		clients += o.Clients
		bytes += float64(o.GoodputBytes)
		simSecs += o.SimSecs
		conn += o.ConnSum
	}
	m.joins = len(durs)
	m.joinP50 = quantile(durs, 0.50)
	m.joinP95 = quantile(durs, 0.95)
	m.joinSuccess = ratio(float64(done), float64(started))
	m.linkUptime = ratio(float64(link), float64(alive))
	m.goodputKbps = ratio(bytes*8/1000, simSecs)
	m.jain = stats.Jain(perClient)
	m.connectivity = ratio(conn, float64(clients))
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sumOutcomes adds the counters of several worlds (for the ledger).
func sumOutcomes(os []outcome) outcome {
	var t outcome
	t.AirtimeNS = map[int]int64{}
	for _, o := range os {
		t.SimSecs += o.SimSecs
		t.JoinsStarted += o.JoinsStarted
		t.JoinsDone += o.JoinsDone
		t.FailAssoc += o.FailAssoc
		t.FailDHCP += o.FailDHCP
		t.FailPing += o.FailPing
		t.CacheHits += o.CacheHits
		t.EventsFired += o.EventsFired
		t.FramesSent += o.FramesSent
		t.Delivered += o.Delivered
		t.Collisions += o.Collisions
		t.UnicastFailed += o.UnicastFailed
		for ch, at := range o.AirtimeNS {
			t.AirtimeNS[ch] += at
		}
		t.Switches += o.Switches
		t.ProbesSent += o.ProbesSent
		t.TxQueued += o.TxQueued
		t.TxDrops += o.TxDrops
		t.PoolRefusals += o.PoolRefusals
		t.IPAMAllocs += o.IPAMAllocs
		t.IPAMFailovers += o.IPAMFailovers
		t.IPAMReclaimed += o.IPAMReclaimed
		t.IPAMRefused += o.IPAMRefused
		t.TelWindows += o.TelWindows
		t.SampledOut += o.SampledOut
		t.Evicted += o.Evicted
	}
	return t
}

// subSeed derives the k-th world seed of a run from the run's seed
// (SplitMix64 finalizer), so a run's worlds are a pure function of --seed.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z >> 33) // 31 bits: positive, never 0 after the +1 below
	return s + 1
}

// quantum is the sim-time step every workload advances by.
const quantum = sim.Time(1e9)
