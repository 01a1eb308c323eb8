// Package textreport renders every reproduced figure and table as text,
// one experiment per identifier (fig2..fig19, table1..table5, whitelist),
// each annotated with the paper's reported values so that a run can be
// read as a paper-vs-measured comparison. rtbh-analyze (all of them, or
// the ids -run selects) and rtbh-live print through this package, and
// EXPERIMENTS.md compares its output with the paper.
package textreport

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	rtbh "repro"
	"repro/internal/analysis/anomaly"
	"repro/internal/analysis/hosts"
	"repro/internal/analysis/usecase"
	"repro/internal/peeringdb"
	"repro/internal/radviz"
)

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the harness identifier, e.g. "fig6" or "table3".
	ID string
	// Title names the experiment.
	Title string
	// Paper states what the paper reports for it.
	Paper string
	// Render prints the measured rows/series.
	Render func(w io.Writer, r *rtbh.Report)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "fig2",
			Title: "Maximum-likelihood time offset between control and data plane",
			Paper: "maximum overlap 99.36% at an offset of 0.04s",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "dropped records: %d\n", r.Fig2.Dropped)
				fmt.Fprintf(w, "best offset: %v, overlap %.4f\n", r.Fig2.BestOffset, r.Fig2.BestOverlap)
				fmt.Fprintln(w, "offset_s overlap")
				for i, p := range r.Fig2.Curve {
					if i%20 == 0 || p.Offset == r.Fig2.BestOffset {
						fmt.Fprintf(w, "%+.3f %.4f\n", p.Offset.Seconds(), p.Overlap)
					}
				}
			},
		},
		{
			ID:    "fig3",
			Title: "Number of active parallel RTBHs over time",
			Paper: "78 peers announced 1,107 parallel RTBHs on average for 170 origin ASes; at most 1,400; message rate below 500/min with spikes to 793",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "announcing peers: %d, origin ASes: %d\n", r.Fig3.Peers, r.Fig3.OriginASes)
				fmt.Fprintf(w, "parallel RTBHs: avg %.0f, max %d\n", r.Fig3.AvgActive, r.Fig3.MaxActive)
				fmt.Fprintf(w, "peak message rate: %d msgs/min\n", r.Fig3.MaxMessagesPerMinute)
				fmt.Fprintln(w, "day active_avg msgs_total")
				perDay := map[int][2]int{}
				var days []int
				for _, p := range r.Fig3.Series {
					d := p.Time.YearDay() + 366*p.Time.Year()
					v := perDay[d]
					v[0] += p.Active
					v[1] += p.Messages
					perDay[d] = v
					if v[0] == p.Active {
						days = append(days, d)
					}
				}
				for i, d := range days {
					v := perDay[d]
					fmt.Fprintf(w, "%d %.0f %d\n", i, float64(v[0])/1440, v[1])
				}
			},
		},
		{
			ID:    "fig4",
			Title: "Share of announced blackholes filtered per peer (targeted blackholing)",
			Paper: "early-October excursion: median peer missed up to 6.2%, one peer 10.8%; afterwards at most 0.2% — targeted announcements are the exception",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "peak hidden share: max-peer %.4f, p99 %.4f, median %.4f\n",
					r.Fig4.PeakMax, r.Fig4.PeakP99, r.Fig4.PeakP50)
				fmt.Fprintf(w, "share of announcements with targeting communities: %.4f\n", r.Fig4.TargetedShare)
				fmt.Fprintln(w, "sample max p99 p50 active")
				for i, p := range r.Fig4.Series {
					if i%16 == 0 {
						fmt.Fprintf(w, "%s %.4f %.4f %.4f %d\n",
							p.Time.Format("2006-01-02"), p.Max, p.P99, p.P50, p.Active)
					}
				}
			},
		},
		{
			ID:    "fig5",
			Title: "Dropped-traffic share by RTBH prefix length",
			Paper: "/32 carries 99.9% of blackhole traffic but only ~50% of packets (44% of bytes) are dropped; /22-/24 drop 93-99%; /25-/31 behave like /32",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "average drop rate: %.3f of packets, %.3f of bytes\n", r.Fig5AvgPkts, r.Fig5AvgBytes)
				fmt.Fprintln(w, "len drop_pkts drop_bytes traffic_share pkts")
				for _, row := range r.Fig5 {
					fmt.Fprintf(w, "/%d %.3f %.3f %.5f %d\n",
						row.PrefixLen, row.DropRatePkts(), row.DropRateBytes(),
						row.TrafficSharePkts, row.TotalPkts())
				}
			},
		},
		{
			ID:    "fig6",
			Title: "Distribution of dropped-traffic shares for /24 and /32 blackholes",
			Paper: "/24: 82-100% with median 97%; /32: quartiles 30% / 53% / 88% — host blackholes are unpredictable",
			Render: func(w io.Writer, r *rtbh.Report) {
				printCDF := func(name string, c *rtbh.ECDF) {
					if c.Len() == 0 {
						fmt.Fprintf(w, "%s: no events\n", name)
						return
					}
					fmt.Fprintf(w, "%s (n=%d): q10 %.2f q25 %.2f q50 %.2f q75 %.2f q90 %.2f\n",
						name, c.Len(), c.Quantile(0.10), c.Quantile(0.25),
						c.Quantile(0.50), c.Quantile(0.75), c.Quantile(0.90))
				}
				printCDF("/24", r.Fig6Slash24)
				printCDF("/32", r.Fig6Slash32)
			},
		},
		{
			ID:    "fig7",
			Title: "Reaction of top traffic sources to /32 blackhole routes",
			Paper: "top 100 sources carry >85% of /32 blackhole traffic; 32 drop >99%, 55 forward >99%, 13 inconsistent",
			Render: func(w io.Writer, r *rtbh.Report) {
				c := r.Fig7Classes
				fmt.Fprintf(w, "top %d sources carry %.3f of traffic\n", len(r.Fig7), c.TopShare)
				fmt.Fprintf(w, "acceptors (>99%% dropped): %d\n", c.Acceptors)
				fmt.Fprintf(w, "rejectors (<1%% dropped):  %d\n", c.Rejectors)
				fmt.Fprintf(w, "inconsistent:             %d\n", c.Inconsistent)
				fmt.Fprintln(w, "rank member drop_rate pkts")
				for i, s := range r.Fig7 {
					if i < 20 {
						fmt.Fprintf(w, "%d AS%d %.3f %d\n", i+1, s.Member, s.DropRatePkts(), s.TotalPkts())
					}
				}
			},
		},
		{
			ID:    "fig8",
			Title: "PeeringDB organization types of the top /32-blackhole traffic sources",
			Paper: "most top sources that do not accept blackhole routes are NSPs",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintln(w, "type all non_acceptors")
				keys := make([]string, 0, len(r.Fig8.All))
				for k := range r.Fig8.All {
					keys = append(keys, string(k))
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(w, "%s %d %d\n", k,
						r.Fig8.All[orgType(k)], r.Fig8.NonAcceptors[orgType(k)])
				}
			},
		},
		{
			ID:    "fig9",
			Title: "Attack and RTBH events: on-off re-announcement pattern (schematic)",
			Paper: "operators withdraw and re-announce blackholes to probe whether the attack is still ongoing",
			Render: func(w io.Writer, r *rtbh.Report) {
				// Realized as code (events.Merge); show the episode-count
				// distribution as evidence of the pattern.
				hist := map[int]int{}
				for _, e := range r.Events {
					b := len(e.Episodes)
					if b > 10 {
						b = 10
					}
					hist[b]++
				}
				fmt.Fprintln(w, "episodes_per_event events (10 = 10+)")
				for b := 1; b <= 10; b++ {
					fmt.Fprintf(w, "%d %d\n", b, hist[b])
				}
			},
		},
		{
			ID:    "fig10",
			Title: "Fraction of blackholing events per announcement vs merge threshold",
			Paper: "400k announcements reduce to 34k events (8.5%) at delta=10min; the last significant drop is at ~10 minutes",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "lower bound (delta=inf): %.4f\n", r.Fig10LowerBound)
				fmt.Fprintln(w, "delta_min events fraction")
				for _, p := range r.Fig10 {
					m := int(p.Delta / time.Minute)
					if m <= 15 || m%5 == 0 {
						fmt.Fprintf(w, "%d %d %.4f\n", m, p.Events, p.Fraction)
					}
				}
			},
		},
		{
			ID:    "fig11",
			Title: "Time slots contributing traffic within 72h before RTBH start",
			Paper: "46% of 34k pre-RTBH windows contain no samples at all; 13k show data in at most 24 slots (2 hours) — very sparse",
			Render: func(w io.Writer, r *rtbh.Report) {
				total := r.Fig11NoData + len(r.Fig11PreDataSlots)
				fmt.Fprintf(w, "pre-RTBH windows: %d, without any samples: %d (%.1f%%)\n",
					total, r.Fig11NoData, 100*float64(r.Fig11NoData)/float64(max(total, 1)))
				buckets := []int{1, 6, 12, 24, 48, 96, 288, 864}
				counts := make([]int, len(buckets))
				for _, n := range r.Fig11PreDataSlots {
					for i, b := range buckets {
						if n <= b {
							counts[i]++
							break
						}
					}
				}
				fmt.Fprintln(w, "slots_with_data(<=) events")
				cum := 0
				for i, b := range buckets {
					cum += counts[i]
					fmt.Fprintf(w, "%d %d\n", b, cum)
				}
			},
		},
		{
			ID:    "fig12",
			Title: "Level and time offset of traffic anomalies before RTBH events",
			Paper: "most anomalies occur up to ten minutes before the first announcement, usually with all five features anomalous",
			Render: func(w io.Writer, r *rtbh.Report) {
				// Matrix: offset bucket x level.
				buckets := []int{2, 6, 12, 72, 288, 864} // slots: 10m, 30m, 1h, 6h, 24h, 72h
				matrix := make([][]int, len(buckets))
				for i := range matrix {
					matrix[i] = make([]int, anomaly.NumFeatures+1)
				}
				for _, a := range r.Fig12 {
					for i, b := range buckets {
						if a.SlotsBefore <= b {
							matrix[i][a.Level]++
							break
						}
					}
				}
				fmt.Fprintln(w, "offset(<=) level1 level2 level3 level4 level5")
				labels := []string{"10m", "30m", "1h", "6h", "24h", "72h"}
				for i := range buckets {
					fmt.Fprintf(w, "%s %d %d %d %d %d\n", labels[i],
						matrix[i][1], matrix[i][2], matrix[i][3], matrix[i][4], matrix[i][5])
				}
			},
		},
		{
			ID:    "fig13",
			Title: "Anomaly amplification factor: last pre-RTBH slot vs window mean",
			Paper: "multiples of up to 800 observed; in 15% of cases the last slot is the maximum of the entire 72h range",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "events where the last slot is the window maximum: %.3f\n", r.Fig13LastSlotMax)
				fmt.Fprintln(w, "feature n q50 q90 q99 max")
				for f := 0; f < anomaly.NumFeatures; f++ {
					xs := append([]float64(nil), r.Fig13[f]...)
					if len(xs) == 0 {
						fmt.Fprintf(w, "%s 0 - - - -\n", anomaly.FeatureNames[f])
						continue
					}
					sort.Float64s(xs)
					fmt.Fprintf(w, "%s %d %.1f %.1f %.1f %.1f\n", anomaly.FeatureNames[f],
						len(xs), quant(xs, 0.5), quant(xs, 0.9), quant(xs, 0.99), xs[len(xs)-1])
				}
			},
		},
		{
			ID:    "fig14",
			Title: "Share of attack packets filterable by the known UDP amplification port list",
			Paper: "90% of anomaly events could be mitigated completely by port-list filtering; the rest use random ports, rotating ports or multiple transports",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "events: %d, fully filterable (>=99%% of packets): %.3f\n",
					len(r.Fig14), r.Fig14FullyFilterable)
				if len(r.Fig14) > 0 {
					fmt.Fprintln(w, "quantile filterable_share")
					for _, q := range []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1} {
						fmt.Fprintf(w, "%.2f %.3f\n", q, quant(r.Fig14, q))
					}
				}
			},
		},
		{
			ID:    "fig15",
			Title: "AS participation in UDP amplification attacks",
			Paper: "501 handover ASes (55% of members) and 11,124 origin ASes participate; top origin AS in 60% of events and identical to the top handover AS; ~1,086 amplifiers, ~30 handover and ~73 origin ASes per attack",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "origin ASes: %d, handover ASes: %d\n", r.Fig15Origin.ASes, r.Fig15Handover.ASes)
				fmt.Fprintf(w, "top origin AS%d in %.2f of events; top handover AS%d in %.2f\n",
					r.Fig15Origin.TopAS, top0(r.Fig15Origin), r.Fig15Handover.TopAS, top0(r.Fig15Handover))
				fmt.Fprintf(w, "per attack: %.0f amplifiers, %.1f origin ASes, %.1f handover ASes (n=%d)\n",
					r.Fig15Scale.MeanAmplifiers, r.Fig15Scale.MeanOriginASes,
					r.Fig15Scale.MeanHandoverASes, r.Fig15Scale.Events)
				fmt.Fprintln(w, "rank origin_share handover_share")
				for i := 0; i < 10; i++ {
					o, h := "-", "-"
					if i < len(r.Fig15Origin.Top10) {
						o = fmt.Sprintf("%.3f", r.Fig15Origin.Top10[i])
					}
					if i < len(r.Fig15Handover.Top10) {
						h = fmt.Sprintf("%.3f", r.Fig15Handover.Top10[i])
					}
					fmt.Fprintf(w, "%d %s %s\n", i+1, o, h)
				}
			},
		},
		{
			ID:    "fig16",
			Title: "RadViz projection of blackholed-host port features",
			Paper: "more blackholed addresses show client traffic patterns than server patterns",
			Render: func(w io.Writer, r *rtbh.Report) {
				// Summarize by the dominating anchor of each host.
				counts := make([]int, hosts.NumFeatures)
				origin := 0
				proj := radviz.New(hosts.NumFeatures)
				anchors := proj.Anchors()
				for _, pt := range r.Fig16 {
					if radviz.Radius(pt) < 0.05 {
						origin++
						continue
					}
					best, bestD := 0, math.Inf(1)
					for i, a := range anchors {
						d := (pt.X-a.X)*(pt.X-a.X) + (pt.Y-a.Y)*(pt.Y-a.Y)
						if d < bestD {
							best, bestD = i, d
						}
					}
					counts[best]++
				}
				fmt.Fprintln(w, "dominating_anchor hosts")
				for i, n := range counts {
					fmt.Fprintf(w, "%s %d\n", hosts.FeatureNames[i], n)
				}
				fmt.Fprintf(w, "balanced(near origin) %d\n", origin)
				client := counts[hosts.FeatInDstPorts] + counts[hosts.FeatOutSrcPorts]
				server := counts[hosts.FeatInSrcPorts] + counts[hosts.FeatOutDstPorts]
				fmt.Fprintf(w, "client-like %d vs server-like %d\n", client, server)
			},
		},
		{
			ID:    "fig17",
			Title: "Top-port variation and host classification",
			Paper: "over 4,000 clients and 1,000 stable servers among hosts with >=20 active days",
			Render: func(w io.Writer, r *rtbh.Report) {
				servers, clients := 0, 0
				hist := make([]int, 11)
				for i := range r.Fig17 {
					p := &r.Fig17[i]
					switch p.Kind {
					case hosts.KindServer:
						servers++
					case hosts.KindClient:
						clients++
					}
					b := int(p.PortVariation * 10)
					if b > 10 {
						b = 10
					}
					hist[b]++
				}
				fmt.Fprintf(w, "detected hosts: %d (clients %d, servers %d)\n",
					len(r.Fig17), clients, servers)
				fmt.Fprintln(w, "port_variation hosts")
				for b, n := range hist {
					fmt.Fprintf(w, "%.1f %d\n", float64(b)/10, n)
				}
			},
		},
		{
			ID:    "fig18",
			Title: "Collateral damage: packets to server top ports during RTBH events",
			Paper: "~300 events with collateral damage for ~1,000 detected servers; worst case up to 10^6 packets per event",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "events with collateral damage: %d (max %d sampled packets)\n",
					r.Fig18.Events, r.Fig18.MaxAll)
				fmt.Fprintln(w, "rank all_pkts dropped_pkts (per-event, ascending)")
				n := len(r.Fig18.AllPkts)
				for i := 0; i < n; i += max(n/10, 1) {
					d := int64(0)
					if i < len(r.Fig18.DroppedPkts) {
						d = r.Fig18.DroppedPkts[i]
					}
					fmt.Fprintf(w, "%d %d %d\n", i, r.Fig18.AllPkts[i], d)
				}
			},
		},
		{
			ID:    "fig19",
			Title: "RTBH event classification by use case",
			Paper: "~27% infrastructure protection (DDoS anomaly), squatting for 4 ASes / 21 prefixes, 13% /32 zombies with <10 packets, ~60% unexplained 'other'",
			Render: func(w io.Writer, r *rtbh.Report) {
				order := []usecase.Class{
					usecase.ClassInfrastructureProtection, usecase.ClassSquattingProtection,
					usecase.ClassZombie, usecase.ClassContentBlocking, usecase.ClassOther,
				}
				fmt.Fprintln(w, "class events share median_duration")
				for _, c := range order {
					ds := r.Fig19.Durations[c]
					med := time.Duration(0)
					if len(ds) > 0 {
						sorted := append([]time.Duration(nil), ds...)
						sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
						med = sorted[len(sorted)/2]
					}
					fmt.Fprintf(w, "%s %d %.3f %v\n", c, r.Fig19.Counts[c], r.Fig19.Shares[c], med.Round(time.Minute))
				}
				fmt.Fprintf(w, "squatting: %d prefixes from %d ASes\n", r.Fig19.SquatPrefixes, r.Fig19.SquatASes)
				fmt.Fprintf(w, "/32 events with <10 packets and no anomaly: %.3f of all\n", r.Fig19.LowTrafficHostShare)
			},
		},
		{
			ID:    "whitelist",
			Title: "Extension: whitelist feasibility during attacks (paper §7.2)",
			Paper: "whitelisting legitimate patterns during an attack is not possible for clients due to highly variable traffic; server patterns are stable",
			Render: func(w io.Writer, r *rtbh.Report) {
				kinds := make(map[uint32]hosts.Kind, len(r.Fig17))
				for i := range r.Fig17 {
					kinds[r.Fig17[i].IP] = r.Fig17[i].Kind
				}
				var srv, cli []float64
				for _, c := range r.Whitelist {
					switch kinds[c.IP] {
					case hosts.KindServer:
						srv = append(srv, c.Share)
					case hosts.KindClient:
						cli = append(cli, c.Share)
					}
				}
				sort.Float64s(srv)
				sort.Float64s(cli)
				median := func(xs []float64) float64 {
					if len(xs) == 0 {
						return math.NaN()
					}
					return xs[len(xs)/2]
				}
				fmt.Fprintf(w, "median whitelist coverage of daily incoming traffic:\n")
				fmt.Fprintf(w, "  servers (n=%d): %.2f\n", len(srv), median(srv))
				fmt.Fprintf(w, "  clients (n=%d): %.2f\n", len(cli), median(cli))
				fmt.Fprintf(w, "a top-port whitelist protects servers but not clients\n")
			},
		},
		{
			ID:    "table1",
			Title: "Expected RTBH characteristics per use case (literature-based)",
			Paper: "descriptive matrix; encoded verbatim as classifier expectations",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintln(w, "use_case | trigger | prefix | latency | duration | traffic | target")
				for _, row := range usecase.Table1 {
					fmt.Fprintf(w, "%s | %s | %s | %s | %s | %s | %s\n",
						row.UseCase, row.Trigger, row.PrefixLength, row.ReactionLatency,
						row.Duration, row.Traffic, row.Target)
				}
			},
		},
		{
			ID:    "table2",
			Title: "Class distribution of pre-RTBH events",
			Paper: "no data 46%; data without anomaly (<=10min) 27%; data with anomaly <=10min 27%",
			Render: func(w io.Writer, r *rtbh.Report) {
				total := float64(max(r.Table2.Total(), 1))
				fmt.Fprintln(w, "class events share")
				fmt.Fprintf(w, "no-data %d %.3f\n", r.Table2.NoData, float64(r.Table2.NoData)/total)
				fmt.Fprintf(w, "data-no-anomaly %d %.3f\n", r.Table2.DataNoAnomaly, float64(r.Table2.DataNoAnomaly)/total)
				fmt.Fprintf(w, "data-anomaly-10min %d %.3f\n", r.Table2.DataAnomaly10Min, float64(r.Table2.DataAnomaly10Min)/total)
				fmt.Fprintf(w, "events with during-event data: %d; anomaly+data: %d\n",
					r.EventsWithData, r.AnomalyAndData)
			},
		},
		{
			ID:    "table3",
			Title: "Distinct UDP amplification protocols per anomaly event with data",
			Paper: "0: 6%, 1: 40%, 2: 45%, 3: 8.3%, 4: 0.6%, 5: 0.1%; protocol mix 99.5% UDP",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "events: %d\n", r.Table3Events)
				fmt.Fprintln(w, "protocols share")
				for k, v := range r.Table3 {
					label := fmt.Sprintf("%d", k)
					if k == 5 {
						label = "5+"
					}
					fmt.Fprintf(w, "%s %.3f\n", label, v)
				}
				fmt.Fprintf(w, "transport mix: UDP %.4f TCP %.4f ICMP %.4f other %.4f (n=%d pkts)\n",
					r.ProtoShares.UDP, r.ProtoShares.TCP, r.ProtoShares.ICMP,
					r.ProtoShares.Other, r.ProtoShares.Packets)
			},
		},
		{
			ID:    "table4",
			Title: "PeeringDB types of detected client and server hosts",
			Paper: "4,057 clients / 1,036 servers; clients: 60% Cable/DSL/ISP; servers: 34% Content",
			Render: func(w io.Writer, r *rtbh.Report) {
				fmt.Fprintf(w, "clients: %d, servers: %d\n", r.Table4.Clients, r.Table4.Servers)
				types := []string{"Content", "Cable/DSL/ISP", "NSP", "Enterprise", "Unknown"}
				fmt.Fprintln(w, "type clients servers")
				for _, typ := range types {
					fmt.Fprintf(w, "%s %.2f %.2f\n", typ,
						r.Table4.ClientTypes[orgType(typ)], r.Table4.ServerTypes[orgType(typ)])
				}
			},
		},
		{
			ID:    "table5",
			Title: "Attack vs legitimate traffic dropped per mitigation type",
			Paper: "RTBH discards everything toward the victim, legitimate traffic included; fine-grained filtering (BGP FlowSpec) drops the attack while sparing legitimate flows",
			Render: func(w io.Writer, r *rtbh.Report) {
				t5 := r.Table5
				if t5 == nil {
					fmt.Fprintln(w, "not composed")
					return
				}
				if !t5.Measured() {
					fmt.Fprintln(w, "no mitigated traffic measured (simulate with -mitigation to enable FlowSpec scenarios)")
					return
				}
				fmt.Fprintln(w, "type prefixes attack_dropped attack_pkts legit_dropped legit_pkts")
				for i := range t5.Rows {
					row := &t5.Rows[i]
					fmt.Fprintf(w, "%s %d %.3f %d %.3f %d\n", row.Phase, row.Prefixes,
						row.Attack.DropRatePkts(), row.Attack.TotalPkts(),
						row.Legit.DropRatePkts(), row.Legit.TotalPkts())
				}
			},
		},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RenderAll prints every experiment with headers.
func RenderAll(w io.Writer, r *rtbh.Report) {
	for _, e := range All() {
		RenderOne(w, r, e)
	}
}

// RenderOne prints a single experiment with its header and paper note.
func RenderOne(w io.Writer, r *rtbh.Report, e Experiment) {
	fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(e.ID), e.Title)
	fmt.Fprintf(w, "paper: %s\n", e.Paper)
	e.Render(w, r)
	fmt.Fprintln(w)
}

func quant(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func top0(p rtbh.Participation) float64 {
	if len(p.Top10) == 0 {
		return 0
	}
	return p.Top10[0]
}

// orgType converts a string label into the registry's type key.
func orgType(s string) peeringdb.OrgType { return peeringdb.OrgType(s) }
