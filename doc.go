// Package repro reproduces Mouratidis & Yiu, "Shortest Path Computation
// with No Information Leakage" (PVLDB 5(8): 692–703, 2012): PIR-based
// shortest path schemes on road networks where the location-based service
// learns nothing about the queries it answers.
//
// Road networks are undirected, like the paper's Table 1 datasets: a road
// costs the same both ways, and a road given twice keeps its least weight.
// §3.1 allows directed edges; this reproduction does not, and one-way
// streets are a parked roadmap item.
//
// The client side of the protocol is split two ways: a scheme
// (internal/scheme/{ci,pi,hy,lm,af}) says what it needs — NextRound, one
// Fetch per record it waits on, FetchRegions per round of region clusters,
// Finish; base.Session, the one per-query object, lays the public plan out
// once as the frames a conforming query sends — per round an announcement
// and one frame per (round, file) quota, its pages padding until a want
// fills them — copies each want into its quota's frame, refuses (with
// ErrPlanOverflow, after sending the rest of the schedule) what the plan
// has no room for, and keeps the query's books: the simulated costs, the
// client clock and the adversary-visible transcript. What reaches the
// service, frame boundaries included, is therefore a function of the plan
// alone.
//
// The build side has one declaration of its tunables: base.Config (exposed
// as privsp.Config) carries the page size, the ablation switches and each
// scheme's knob, base.Config.Resolve writes every default and rejects an
// out-of-range value, and every scheme's Build takes the Config as is, so
// privsp.Build is a table lookup and a direct caller gets the same
// database.
//
// The public API lives in the privsp subpackage; README.md documents the
// architecture, including the context-first query surface
// (privsp.PathService: ShortestPath(ctx, src, dst, ...QueryOption), with
// deadlines and cancellation honored at PIR round boundaries so an aborted
// query's service-visible trace stays a prefix of a full one), the networked
// deployment (cmd/privspd daemon and the privsp.DialContext remote client,
// whose single TCP connection multiplexes concurrent queries by query ID and
// can CANCEL in-flight work), and the build-once / serve-many persistence
// workflow (privsp.Database.Save / privsp.Open, "privsp build -out" /
// "privspd -db": the expensive preprocessing runs once, offline, and the
// daemon, which builds nothing, serves the resulting .psdb containers from
// read-only mappings of the files). The daemon is observable without being
// leaky: internal/telemetry backs a privspd -admin endpoint (Prometheus-text
// /metrics, /healthz, pprof) whose exported series are functions of the
// adversary-visible trace plus timing only — never of query contents (README
// "Observability"). Serving capacity is scan throughput by construction —
// every PIR answer streams the whole file — so the XOR store carries a
// segmented parallel kernel that fans each scan across per-pass goroutines
// (width derived once from GOMAXPROCS and the file size; byte-identical to
// serial). A fetch or share batch on a scan store holds one worker-pool slot
// for one pass, so a database's pool of 2×GOMAXPROCS slots bounds how many
// passes run at once, not how wide each is. The benchmarks in bench_test.go regenerate every table
// and figure (see also cmd/experiments).
package repro
