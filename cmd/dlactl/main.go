// Command dlactl is the DLA client: it issues tickets (given the
// issuer's provisioning file), registers them, logs event records,
// reads them back, and runs confidential auditing queries against a
// cluster started with dlad.
//
// Examples:
//
//	dlactl issue -dir provision -ticket-id T1 -holder u0 -ops WR -out t1.json
//	dlactl register -dir provision -id u0 -ticket t1.json
//	dlactl log -dir provision -id u0 -ticket t1.json id=U1 protocl=UDP C1=20
//	dlactl read -dir provision -id u0 -ticket t1.json -glsn 139aef78
//	dlactl query -dir provision -id aud -ticket ta.json -criteria 'C1 > 30'
//	dlactl agg -dir provision -id aud -ticket ta.json -criteria '*' -kind sum -attr C1
//	dlactl trace -addr 127.0.0.1:6060 q/aud/1
//	dlactl trace -addrs 127.0.0.1:6060,127.0.0.1:6061,127.0.0.1:6062 q/aud/1
//	dlactl leaks -addrs 127.0.0.1:6060,127.0.0.1:6061
//	dlactl storage status -addrs 127.0.0.1:6060,127.0.0.1:6061
//	dlactl ingest status -addrs 127.0.0.1:6060,127.0.0.1:6061
//	dlactl flight -addrs 127.0.0.1:6060,127.0.0.1:6061 -since 10m
//	dlactl top -addrs 127.0.0.1:6060,127.0.0.1:6061,127.0.0.1:6062
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/integrity"
	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// wireTicket is dlactl's on-disk ticket form.
type wireTicket struct {
	ID     string `json:"id"`
	Holder string `json:"holder"`
	Ops    []int  `json:"ops"`
	Sig    []byte `json:"sig"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlactl: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "issue":
		err = cmdIssue(args)
	case "register":
		err = withClient(args, nil, cmdRegister)
	case "log":
		err = withClient(args, nil, cmdLog)
	case "read":
		err = withClient(args, nil, cmdRead)
	case "query":
		err = withClient(args, nil, cmdQuery)
	case "agg":
		err = withClient(args, nil, cmdAgg)
	case "check":
		err = withClient(args, nil, cmdCheck)
	case "aclcheck":
		err = withClient(args, nil, cmdACLCheck)
	case "trace":
		err = cmdTrace(args)
	case "leaks":
		err = cmdLeaks(args)
	case "storage":
		err = cmdStorage(args)
	case "ingest":
		err = cmdIngest(args)
	case "flight":
		err = cmdFlight(args)
	case "top":
		err = cmdTop(args)
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dlactl issue|register|log|read|query|agg|check|aclcheck|trace|leaks|storage|ingest|flight|top [flags] [args]")
	os.Exit(2)
}

func cmdIssue(args []string) error {
	fs := flag.NewFlagSet("issue", flag.ExitOnError)
	var (
		dir      = fs.String("dir", "provision", "provisioning directory")
		ticketID = fs.String("ticket-id", "", "ticket ID (required)")
		holder   = fs.String("holder", "", "holder node ID (required)")
		ops      = fs.String("ops", "WR", "operations: any of W, R, D")
		out      = fs.String("out", "", "output ticket file (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ticketID == "" || *holder == "" || *out == "" {
		return fmt.Errorf("-ticket-id, -holder, and -out are required")
	}
	ip, err := cluster.LoadIssuer(*dir)
	if err != nil {
		return err
	}
	issuer, err := ticket.NewIssuerFromSeed(ip.Seed)
	if err != nil {
		return err
	}
	var opList []ticket.Op
	for _, r := range strings.ToUpper(*ops) {
		switch r {
		case 'W':
			opList = append(opList, ticket.OpWrite)
		case 'R':
			opList = append(opList, ticket.OpRead)
		case 'D':
			opList = append(opList, ticket.OpDelete)
		default:
			return fmt.Errorf("unknown op %q", r)
		}
	}
	tk, err := issuer.Issue(*ticketID, *holder, opList...)
	if err != nil {
		return err
	}
	wt := wireTicket{ID: tk.ID, Holder: tk.Holder, Sig: tk.Sig}
	for _, o := range tk.Ops {
		wt.Ops = append(wt.Ops, int(o))
	}
	data, err := json.MarshalIndent(wt, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o600); err != nil {
		return err
	}
	log.Printf("ticket %s (%s) for %s written to %s", tk.ID, tk.OpsString(), tk.Holder, *out)
	return nil
}

// clientEnv is everything a connected subcommand needs.
type clientEnv struct {
	ctx    context.Context
	common *cluster.CommonProvision
	client *cluster.Client
	mb     *transport.Mailbox
	fs     *flag.FlagSet
}

// withClient parses shared flags, connects to the cluster, and runs fn.
func withClient(args []string, _ any, fn func(*clientEnv) error) error {
	fs := flag.NewFlagSet("dlactl", flag.ExitOnError)
	var (
		dir        = fs.String("dir", "provision", "provisioning directory")
		id         = fs.String("id", "", "this client's node ID (required)")
		ticketPath = fs.String("ticket", "", "ticket file (required)")
		listen     = fs.String("listen", "127.0.0.1:0", "client listen address")
		timeout    = fs.Duration("timeout", time.Minute, "operation timeout")
	)
	// Subcommand-specific flags are registered up front so one FlagSet
	// serves every connected subcommand.
	fs.String("glsn", "", "glsn for read")
	fs.String("criteria", "", "auditing criteria for query/agg")
	fs.String("kind", "count", "aggregate kind: count|sum|max|min|avg")
	fs.String("attr", "", "aggregate attribute")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *ticketPath == "" {
		return fmt.Errorf("-id and -ticket are required")
	}
	common, err := cluster.LoadCommon(*dir)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*ticketPath)
	if err != nil {
		return err
	}
	var wt wireTicket
	if err := json.Unmarshal(data, &wt); err != nil {
		return err
	}
	tk := &ticket.Ticket{ID: wt.ID, Holder: wt.Holder, Sig: wt.Sig}
	for _, o := range wt.Ops {
		tk.Ops = append(tk.Ops, ticket.Op(o))
	}
	part, err := logmodel.FromSpec(common.Partition)
	if err != nil {
		return err
	}
	accParams, err := restoreAcc(common)
	if err != nil {
		return err
	}
	addrs := make(map[string]string, len(common.Addresses)+1)
	for k, v := range common.Addresses {
		addrs[k] = v
	}
	addrs[*id] = *listen
	tcp := transport.NewTCPNetwork(addrs)
	ep, err := tcp.Endpoint(*id)
	if err != nil {
		return err
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	client, err := cluster.OpenClient(mb, cluster.ClientConfig{
		Roster:      common.Roster,
		Partition:   part,
		Accumulator: accParams,
		Ticket:      tk,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	env := &clientEnv{ctx: ctx, common: common, client: client, mb: mb, fs: fs}
	return fn(env)
}

func restoreAcc(common *cluster.CommonProvision) (*accumulator.Params, error) {
	p := &accumulator.Params{N: common.AccN, X0: common.AccX0}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func cmdRegister(env *clientEnv) error {
	if err := env.client.RegisterTicket(env.ctx); err != nil {
		return err
	}
	log.Printf("ticket %s registered on %v", env.client.Ticket().ID, env.common.Roster)
	return nil
}

func cmdLog(env *clientEnv) error {
	values := make(map[logmodel.Attr]logmodel.Value)
	for _, kv := range env.fs.Args() {
		i := strings.IndexByte(kv, '=')
		if i <= 0 {
			return fmt.Errorf("bad attribute %q, want key=value", kv)
		}
		k, v := kv[:i], kv[i+1:]
		values[logmodel.Attr(k)] = parseValue(v)
	}
	if len(values) == 0 {
		return fmt.Errorf("no attributes given")
	}
	g, err := env.client.Log(env.ctx, values)
	if err != nil {
		return err
	}
	log.Printf("logged under glsn %s", g)
	return nil
}

func parseValue(s string) logmodel.Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return logmodel.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return logmodel.Float(f)
	}
	return logmodel.String(s)
}

func cmdRead(env *clientEnv) error {
	gs := env.fs.Lookup("glsn").Value.String()
	if gs == "" {
		return fmt.Errorf("-glsn is required")
	}
	g, err := logmodel.ParseGLSN(gs)
	if err != nil {
		return err
	}
	rec, err := env.client.Read(env.ctx, g)
	if err != nil {
		return err
	}
	log.Printf("glsn %s:", rec.GLSN)
	for _, a := range rec.Attrs() {
		log.Printf("  %s = %s", a, rec.Values[a].Render())
	}
	return nil
}

func cmdQuery(env *clientEnv) error {
	criteria := env.fs.Lookup("criteria").Value.String()
	if criteria == "" {
		return fmt.Errorf("-criteria is required")
	}
	auditor := audit.NewAuditor(env.mb, env.common.Roster[0], env.client.Ticket().ID)
	glsns, err := auditor.Query(env.ctx, criteria)
	if err != nil {
		return err
	}
	log.Printf("%d matching records:", len(glsns))
	for _, g := range glsns {
		log.Printf("  %s", g)
	}
	return nil
}

func cmdCheck(env *clientEnv) error {
	rep, err := integrity.RequestCheck(env.ctx, env.mb, env.common.Roster[0], "ctl-check", nil)
	if err != nil {
		return err
	}
	log.Printf("integrity sweep: %d records checked", rep.Checked)
	if rep.Clean() {
		log.Printf("all records intact")
		return nil
	}
	for _, g := range rep.Corrupted {
		log.Printf("CORRUPTED: %s", g)
	}
	for g, err := range rep.Errors {
		log.Printf("ERROR %s: %v", g, err)
	}
	return nil
}

func cmdACLCheck(env *clientEnv) error {
	rep, err := cluster.RequestACLCheck(env.ctx, env.mb, env.common.Roster[0], "ctl-aclcheck")
	if err != nil {
		return err
	}
	log.Printf("access-control tables consistent: %v", rep.Consistent)
	for node, v := range rep.Verdicts {
		log.Printf("  %s: ok=%v own=%d common=%d %s", node, v.OK, v.OwnSize, v.CommonSize, v.Error)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6060", "dlad -pprof address serving /debug/dla")
	addrs := fs.String("addrs", "", "comma-separated dlad -pprof addresses; fan out, merge per-node fragments, render one cluster-wide tree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrs != "" {
		session := fs.Arg(0)
		if session == "" {
			return fmt.Errorf("trace -addrs requires a session argument")
		}
		return fetchClusterTrace(os.Stdout, splitAddrs(*addrs), session)
	}
	// With no session argument, list the sessions the node has traces for.
	return fetchTrace(os.Stdout, "http://"+*addr, fs.Arg(0))
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// fetchTrace pulls a trace from a dlad debug endpoint and renders the
// span tree (or, with an empty session, the stored session list).
func fetchTrace(w io.Writer, baseURL, session string) error {
	if session == "" {
		resp, err := http.Get(baseURL + "/debug/dla/trace/")
		if err != nil {
			return err
		}
		defer resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("trace endpoint: %s", resp.Status)
		}
		_, err = io.Copy(w, resp.Body)
		return err
	}
	view, err := fetchTraceView(baseURL, session)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, telemetry.FormatTree(view))
	return err
}

// fetchTraceView pulls one node's trace fragment for a session.
func fetchTraceView(baseURL, session string) (telemetry.TraceView, error) {
	var view telemetry.TraceView
	err := getJSON(baseURL+"/debug/dla/trace/"+session, &view)
	if errors.Is(err, errNotFound) {
		return view, fmt.Errorf("no trace for session %q (run `dlactl trace` for the stored sessions)", session)
	}
	return view, err
}

// errNotFound marks a 404 from a debug endpoint.
var errNotFound = errors.New("404 Not Found")

// getJSON GETs url and decodes its JSON body into v. Any status but
// 200 is an error, wrapping errNotFound for a 404.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return fmt.Errorf("GET %s: %w", url, errNotFound)
	default:
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

// fetchClusterTrace fans out to every node's debug port, merges the
// per-node trace fragments by span ID (with clock-skew normalization),
// and renders the single cluster-wide tree. Nodes without a fragment
// for the session are skipped with a warning: a query does not
// necessarily touch every node.
func fetchClusterTrace(w io.Writer, addrs []string, session string) error {
	var fragments []telemetry.TraceView
	for _, a := range addrs {
		view, err := fetchTraceView("http://"+a, session)
		if err != nil {
			log.Printf("warning: %s: %v", a, err)
			continue
		}
		fragments = append(fragments, view)
	}
	if len(fragments) == 0 {
		return fmt.Errorf("no node returned a trace for session %q", session)
	}
	merged := telemetry.MergeViews(session, fragments)
	_, err := io.WriteString(w, telemetry.FormatTree(merged))
	return err
}

// cmdLeaks fetches per-node leak ledgers, merges them into one cluster
// view, and renders the per-querier confidentiality spend.
func cmdLeaks(args []string) error {
	fs := flag.NewFlagSet("leaks", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6060", "dlad -pprof address serving /debug/dla")
	addrs := fs.String("addrs", "", "comma-separated dlad -pprof addresses; fan out and merge per-node ledgers")
	asJSON := fs.Bool("json", false, "emit the merged LedgerSnapshot as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := splitAddrs(*addrs)
	if len(targets) == 0 {
		targets = []string{*addr}
	}
	return fetchClusterLeaks(os.Stdout, targets, *asJSON)
}

// fetchClusterLeaks fans out to every node's /debug/dla/leaks, merges
// the per-node ledgers, and renders (or JSON-encodes) the cluster view.
func fetchClusterLeaks(w io.Writer, targets []string, asJSON bool) error {
	var snaps []telemetry.LedgerSnapshot
	for _, a := range targets {
		var snap telemetry.LedgerSnapshot
		if err := getJSON("http://"+a+"/debug/dla/leaks", &snap); err != nil {
			log.Printf("warning: %s: %v", a, err)
			continue
		}
		snaps = append(snaps, snap)
	}
	if len(snaps) == 0 {
		return fmt.Errorf("no node returned a leak ledger")
	}
	merged := telemetry.MergeLedgers(snaps)
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(merged)
	}
	_, err := io.WriteString(w, telemetry.FormatLedger(merged))
	return err
}

func cmdAgg(env *clientEnv) error {
	criteria := env.fs.Lookup("criteria").Value.String()
	if criteria == "" {
		return fmt.Errorf("-criteria is required")
	}
	kind := audit.AggKind(env.fs.Lookup("kind").Value.String())
	attr := logmodel.Attr(env.fs.Lookup("attr").Value.String())
	auditor := audit.NewAuditor(env.mb, env.common.Roster[0], env.client.Ticket().ID)
	v, err := auditor.Aggregate(env.ctx, criteria, kind, attr)
	if err != nil {
		return err
	}
	log.Printf("%s(%s) over %q = %v", kind, attr, criteria, v)
	return nil
}
