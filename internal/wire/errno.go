package wire

// Wire errno table.
//
// Every error response crossing a CMB link carries one of these values
// (POSIX-flavoured, as in the C prototype). They live in the wire
// package because they are part of the protocol: a broker at one rank
// must be able to classify an errnum produced at another, so ad-hoc
// integer literals are forbidden — fluxlint's errno-discipline pass
// flags error responses whose errnum is not drawn from this table (or a
// named alias of it).
const (
	ErrnoNoEnt       int32 = 2   // no such key / object
	ErrnoIO          int32 = 5   // storage tier failure (persist / checkpoint)
	ErrnoNotDir      int32 = 20  // key path traverses a value object
	ErrnoInval       int32 = 22  // malformed request
	ErrnoNoSys       int32 = 38  // no comms module matches the topic
	ErrnoProto       int32 = 71  // protocol violation
	ErrnoShutdown    int32 = 108 // broker shutting down
	ErrnoTimedOut    int32 = 110 // RPC timeout
	ErrnoHostUnreach int32 = 113 // rank not reachable
	ErrnoStale       int32 = 116 // stale membership epoch (departed or unadmitted rank)
)

// OpErrnos declares, per request operation, the errno values its
// handler is allowed to emit in an error response. The table is the
// protocol's error contract: a client of barrier.enter can switch on
// exactly these values and know the switch is exhaustive. fluxlint's
// errno-completeness pass checks every request-dispatch switch against
// it — each dispatch arm may emit only its operation's declared errnos,
// and every operation declared here must have an arm.
//
// The sets cover transitive emissions: an op is charged with every
// errno reachable through the helpers its handler calls (so cmb.join
// declares ErrnoStale even though the fence lives in a helper).
// ErrnoShutdown, ErrnoTimedOut, and ErrnoHostUnreach are additionally
// produced by the routing layer for any op and are not repeated per
// entry.
var OpErrnos = map[string][]int32{
	// Broker built-ins (the "cmb" service).
	TopicPub:     {ErrnoInval},
	TopicPing:    {ErrnoInval},
	TopicInfo:    {},
	TopicStats:   {},
	TopicTrace:   {ErrnoInval},
	TopicLsmod:   {},
	TopicRmmod:   {ErrnoInval, ErrnoNoEnt},
	TopicJoin:    {ErrnoInval, ErrnoProto, ErrnoStale},
	TopicGrow:    {ErrnoInval, ErrnoNoSys},
	TopicShrink:  {ErrnoInval, ErrnoNoSys},
	TopicRestart: {ErrnoInval, ErrnoNoSys},
	TopicDmesg:   {ErrnoInval},
	TopicLogFwd:  {ErrnoInval},
	TopicDump:    {ErrnoInval},

	// Barrier service.
	"barrier.enter": {ErrnoInval, ErrnoProto},
	"barrier.done":  {ErrnoProto},
	"barrier.stats": {},

	// Resource service.
	"resrc.alloc": {ErrnoInval, ErrnoNoEnt, ErrnoProto},
	"resrc.free":  {ErrnoInval, ErrnoNoEnt, ErrnoProto},
	"resrc.avail": {ErrnoInval},

	// Process-group service.
	"group.join":     {ErrnoInval, ErrnoProto},
	"group.leave":    {ErrnoInval, ErrnoProto},
	"group.list":     {ErrnoInval},
	"group.lsgroups": {},

	// Job service.
	"job.submit": {ErrnoInval, ErrnoProto},
	"job.list":   {ErrnoInval},
	"job.cancel": {ErrnoInval, ErrnoNoEnt, ErrnoProto},
	"job.info":   {ErrnoInval, ErrnoNoEnt},

	// Heartbeat service.
	"hb.get":   {},
	"hb.pulse": {ErrnoInval, ErrnoProto},

	// KVS service.
	"kvs.put":        {ErrnoInval, ErrnoProto},
	"kvs.fence":      {ErrnoInval, ErrnoIO, ErrnoProto},
	"kvs.commit":     {ErrnoInval, ErrnoIO, ErrnoProto},
	"kvs.fenceadd":   {ErrnoInval, ErrnoIO, ErrnoProto},
	"kvs.fencedone":  {ErrnoInval, ErrnoIO, ErrnoProto},
	"kvs.rootupdate": {ErrnoInval},
	"kvs.get":        {ErrnoInval, ErrnoNoEnt, ErrnoNotDir, ErrnoProto},
	"kvs.load":       {ErrnoInval, ErrnoNoEnt, ErrnoProto},
	"kvs.sync":       {ErrnoInval, ErrnoNoEnt},
	"kvs.getversion": {},
	"kvs.getroot":    {ErrnoInval},
	"kvs.checkpoint": {ErrnoIO, ErrnoNoSys},
	"kvs.storage":    {ErrnoNoSys},
	"kvs.stats":      {},
}

// Control-plane topics.
//
// The "cmb" service is the broker itself: its built-in request methods
// and the link-level control messages. These strings are protocol
// constants — a typo in one wedges a resync or silently drops a
// subscription — so fluxlint's wire-hygiene pass flags any "cmb."
// string literal outside this package: every use must round-trip
// through these declarations.
const (
	// ServiceCMB is the broker's built-in service name.
	ServiceCMB = "cmb"

	// TopicResync (control) asks a parent to replay events after Seq and
	// open the child's gated event link.
	TopicResync = "cmb.resync"
	// TopicSub / TopicUnsub (control) maintain a client link's
	// event-topic subscriptions broker-side.
	TopicSub   = "cmb.sub"
	TopicUnsub = "cmb.unsub"

	// TopicPub (request) publishes an event via the root sequencer.
	TopicPub = "cmb.pub"
	// TopicPing (request) echoes its payload with rank and hop count.
	TopicPing = "cmb.ping"
	// TopicInfo (request) reports rank, size, arity, and parent.
	TopicInfo = "cmb.info"
	// TopicStats (request) snapshots the broker counters and its
	// observability-registry metrics.
	TopicStats = "cmb.stats"
	// TopicTrace (request) returns the broker's buffered trace spans,
	// optionally filtered to one trace id.
	TopicTrace = "cmb.trace"
	// TopicLsmod / TopicRmmod (request) list and unload comms modules.
	TopicLsmod = "cmb.lsmod"
	TopicRmmod = "cmb.rmmod"

	// TopicJoin (request) is the membership join handshake: a joining
	// broker sends it as the first message on its new parent-tree link,
	// carrying session id, wire version, and proposed rank; the parent
	// admits the link (un-pends it) and replies with the current
	// membership epoch and live size.
	TopicJoin = "cmb.join"
	// TopicGrow / TopicShrink (request) ask the session to add ranks /
	// gracefully drain and remove ranks. Served at any broker whose
	// session installed membership hooks; ENOSYS otherwise.
	TopicGrow   = "cmb.grow"
	TopicShrink = "cmb.shrink"
	// TopicRestart (request) asks the session to bring a previously
	// killed or crashed rank back through the join path, cold-loading
	// its durable state from disk.
	TopicRestart = "cmb.restart"

	// TopicDmesg (request) returns a broker's buffered log records;
	// with the subtree flag set the broker tree-reduces its whole live
	// subtree first, so dmesg at the root is a session-wide gather.
	TopicDmesg = "cmb.dmesg"
	// TopicLogFwd (request, fire-and-forget) carries a batch of warn+
	// log records one hop up the overlay tree. Each interior broker
	// folds the batch into its aggregation ring and re-forwards, so
	// batches climb to the root hop by hop — TBON log aggregation.
	TopicLogFwd = "cmb.logfwd"
	// TopicDump (request) snapshots a broker's flight-recorder state:
	// recent log records, span ring, and metrics registry.
	TopicDump = "cmb.dump"

	// EventJoin / EventLeave are the epoch-tagged membership events
	// sequenced through the root: every broker folds them into its
	// membership view (current epoch, live size, tombstone set), so the
	// totally ordered event stream is what keeps views convergent.
	EventJoin  = "live.join"
	EventLeave = "live.leave"

	// EventHeartbeat is the hb module's pulse event. It lives here
	// because the broker core also listens for it: each heartbeat is
	// the cue for a broker to forward its pending warn+ log records
	// upstream, so the log plane ticks at the session's own cadence.
	EventHeartbeat = "hb"
)

// Metric names of the broker core's observability registry. They share
// the "cmb." namespace with the broker's wire topics (the registry is
// keyed by service, like the wire protocol), so they live here with the
// other cmb strings.
const (
	MetricRequestsRouted   = "cmb.requests_routed"
	MetricRequestsUpstream = "cmb.requests_upstream"
	MetricRequestsRing     = "cmb.requests_ring"
	MetricResponsesRouted  = "cmb.responses_routed"
	MetricEventsPublished  = "cmb.events_published"
	MetricEventsApplied    = "cmb.events_applied"
	MetricEventsDuplicate  = "cmb.events_duplicate"
	MetricEventSeqGaps     = "cmb.event_seq_gaps"
	MetricReparents        = "cmb.reparents"
	MetricSendErrors       = "cmb.send_errors"
	MetricInflightFailed   = "cmb.inflight_failed"

	// Membership-epoch plane: the current epoch gauge plus counters for
	// admitted joins, applied leaves, drains this broker performed on
	// departing ranks, and messages rejected at the boundary for carrying
	// a stale epoch.
	MetricEpoch        = "cmb.epoch"
	MetricJoins        = "cmb.joins"
	MetricLeaves       = "cmb.leaves"
	MetricDrains       = "cmb.drains"
	MetricEpochRejects = "cmb.epoch_rejects"

	// Silent-drop observability: every logf-only drop path in the
	// broker also counts, mirroring the epoch-discipline rule that a
	// dropped message must leave a measurable mark.
	MetricDropsUnknownType    = "cmb.drops_unknown_type"
	MetricDropsEmptyRoute     = "cmb.drops_empty_route"
	MetricDropsUnknownLink    = "cmb.drops_unknown_link"
	MetricDropsUnknownControl = "cmb.drops_unknown_control"

	// Log plane: records appended to the local ring, warn+ records
	// forwarded upstream, and forwarded batches received from children.
	MetricLogRecords    = "cmb.log_records"
	MetricLogForwarded  = "cmb.log_forwarded"
	MetricLogFwdBatches = "cmb.log_fwd_batches"
	MetricFlightDumps   = "cmb.flight_dumps"

	// Encode-once event fan-out: frames encoded (one per event that had
	// at least one frame-capable child link) and sends served from an
	// already-encoded shared frame instead of a per-child marshal.
	MetricEventsFanoutEncodes = "cmb.events_fanout_encodes"
	MetricEventsFanoutReuse   = "cmb.events_fanout_reuse"

	// Event recipient-table entries built: one per topic after each
	// change to who receives events, none while subscriptions hold still.
	MetricEventRecipientRebuilds = "cmb.events_recipient_rebuilds"

	MetricRequestQueueNS  = "cmb.request_queue_ns"
	MetricRouteRequestNS  = "cmb.route_request_ns"
	MetricRouteResponseNS = "cmb.route_response_ns"
	MetricApplyEventNS    = "cmb.apply_event_ns"

	// Per-link transport counters, suffixes under "link.<id>.": bytes on
	// the wire each way and frames that shared a coalesced flush (i.e.
	// syscalls saved by the batching writer).
	MetricLinkPrefix          = "link."
	MetricSuffixBytesSent     = ".bytes_sent"
	MetricSuffixBytesRecv     = ".bytes_recv"
	MetricSuffixFramesCoalesc = ".frames_coalesced"
)
