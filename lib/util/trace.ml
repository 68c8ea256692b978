(* Program-wide tracing (ftrace-shaped, sized for the simulator).

   Two always-compiled-in, disarmed-by-default facilities behind one
   switch, [armed]:

   - an event ring: one preallocated int array, three interleaved words
     per entry (event id, argument, span) behind a power-of-two mask.  An
     armed [stamp] is three adjacent int stores and an increment — no
     allocation, so the ring can stay armed across a zero-allocation
     fastpath run.  Disarmed it is a single load-and-branch.  The
     timestamp is the stamp's own sequence number, which the slot's
     position under the cursor already gives: a total order is what trace
     analysis needs.

   - request-scoped span ids (§3.8).  Every syscall entry mints a span id
     from a per-domain block (blocks are carved off one global atomic, so
     two domains never mint the same id) and installs it as the domain's
     current span.  The id rides every stamp, is carried in the netfs
     wire message, re-installed server-side, and recorded at lease-break
     delivery — so a cross-client invalidation storm renders as one
     connected trace.  Span 0 means "no span".

   Both are program-wide on purpose: a netfs server and its clients'
   kernels share one timeline.  Everything a kernel measures about itself
   (counters, timers) lives in its dcache.
   [reset ()] between experiments. *)

(* --- event taxonomy --- *)

let ev_fast_hit = 0
let ev_fast_neg = 1
let ev_fallback = 2
let ev_slowpath = 3
let ev_dlht_insert = 4
let ev_dlht_remove = 5
let ev_pcc_insert = 6
let ev_pcc_stale = 7
let ev_inval_rename = 8
let ev_inval_chmod = 9
let ev_quarantine = 10
let ev_complete_neg = 11
let ev_refwalk = 12
let ev_rpc_drop = 13
let ev_rpc_retry = 14
let ev_rpc_giveup = 15
let ev_rpc_drc_hit = 16
let ev_fault_fire = 17
let ev_dlht_resize = 18
let ev_lockless_retry = 19
let ev_dlht_sigless_scan = 20
let ev_prefix_resume = 21
let ev_prefix_negfail = 22
let ev_stripe_contended = 23
let ev_lease_grant = 24
let ev_lease_expire = 25
let ev_lease_break = 26
let ev_lease_fence = 27
let ev_rpc_partition = 28
let ev_netfs_crash = 29
let ev_syscall = 30
let ev_rpc_send = 31
let ev_span_link = 32
let ev_batch_submit = 33
let ev_batch_split = 34
let n_events = 35

let event_names =
  [|
    "fastpath_hit";
    "fastpath_negative";
    "fastpath_fallback";
    "slowpath_walk";
    "dlht_insert";
    "dlht_remove";
    "pcc_insert";
    "pcc_stale_drop";
    "invalidate_rename";
    "invalidate_chmod";
    "quarantine";
    "complete_dir_negative";
    "refwalk_retry";
    "rpc_drop";
    "rpc_retry";
    "rpc_giveup";
    "rpc_drc_hit";
    "fault_fire";
    "dlht_resize";
    "fastpath_lockless_retry";
    "dlht_sigless_scan";
    "prefix_resume";
    "prefix_negfail";
    "stripe_contended";
    "lease_grant";
    "lease_expire";
    "lease_break";
    "lease_fence";
    "rpc_partition";
    "netfs_crash";
    "syscall";
    "rpc_send";
    "span_link";
    "batch_submit";
    "batch_split";
  |]

let event_name ev = if ev >= 0 && ev < n_events then event_names.(ev) else "unknown"

(* --- the event ring --- *)

let default_capacity = 8192

(* One flat array, three words per entry (ev, arg, span interleaved): an
   armed stamp's stores land on one or two adjacent cache lines instead of
   three distinct lines in parallel arrays — on a ring this size the lanes
   never stay resident, so the layout is most of the armed stamp's cost.
   An entry's sequence number is not stored: [iter_events] derives it from
   the cursor. *)
let ring_stride = 3
let armed = ref false
let ring_buf = ref (Array.make (default_capacity * ring_stride) 0)
let mask = ref (default_capacity - 1)

(* The ring cursor is atomic: sharded writers stamp from many domains at
   once, and a fetch-and-add hands each stamp its own slot so concurrent
   stamps never collapse into one.  The slot stores themselves stay plain —
   two stamps racing a full ring apart could tear a slot, which trace
   consumers already tolerate (the ring is diagnostic, not a statistic). *)
let seq = Atomic.make 0

let capacity () = Array.length !ring_buf / ring_stride

let configure ~capacity =
  if capacity <= 0 || capacity land (capacity - 1) <> 0 then
    invalid_arg "Trace.configure: capacity must be a positive power of two";
  ring_buf := Array.make (capacity * ring_stride) 0;
  mask := capacity - 1;
  Atomic.set seq 0

(* --- request-scoped span ids --- *)

(* Block 0 is never handed out, so a real span id is always >= [span_block]
   and 0 can mean "no span". *)
let span_block = 1 lsl 20
let next_block = Atomic.make 1

(* Per-domain span state lives in Domain.DLS: on this compiler the DLS
   read ("%dls_get", an intrinsic) is measurably cheaper than a
   [Domain.self] C call, and [current_span] runs inside every armed stamp,
   so the access path is the whole cost.  The record is mutated in place —
   one DLS read per hook, int stores after that. *)
type span_scratch = {
  mutable sp_cur : int;  (* the domain's current span; 0 = none *)
  mutable sp_next : int;  (* next id to mint from the domain's block *)
  mutable sp_limit : int;  (* exclusive end of the block *)
}

let span_key = Domain.DLS.new_key (fun () -> { sp_cur = 0; sp_next = 0; sp_limit = 0 })

(* Armed cost: a DLS read and three int stores; the block refill is one
   atomic fetch-and-add every 2^20 spans.  Nothing allocates. *)
let span_enter () =
  if not !armed then 0
  else begin
    let s = Domain.DLS.get span_key in
    if s.sp_next >= s.sp_limit then begin
      let b = Atomic.fetch_and_add next_block 1 in
      s.sp_next <- b * span_block;
      s.sp_limit <- (b + 1) * span_block
    end;
    let id = s.sp_next in
    s.sp_next <- id + 1;
    s.sp_cur <- id;
    id
  end

let[@inline] current_span () = (Domain.DLS.get span_key).sp_cur

(* Allocates a closure — RPC path only. *)
let with_span id f =
  let s = Domain.DLS.get span_key in
  let saved = s.sp_cur in
  s.sp_cur <- id;
  Fun.protect ~finally:(fun () -> s.sp_cur <- saved) f

(* The entry base is masked by the array's own length (the capacity is a
   power of two, so entry count = length / 3 and the mask is one less): no
   bounds-check branch, yet memory-safe even if a racing [configure] swaps
   the buffer mid-stamp. *)
let[@inline] stamp_span span ev arg =
  let s = Atomic.fetch_and_add seq 1 in
  let a = !ring_buf in
  let base = (s land ((Array.length a / ring_stride) - 1)) * ring_stride in
  Array.unsafe_set a base ev;
  Array.unsafe_set a (base + 1) arg;
  Array.unsafe_set a (base + 2) span

let[@inline] stamp ev arg = if !armed then stamp_span (current_span ()) ev arg

type spans = span_scratch

let domain_spans () = Domain.DLS.get span_key
let[@inline] stamp_on sp ev arg = if !armed then stamp_span sp.sp_cur ev arg

let recorded () = Atomic.get seq
let dropped () = Stdlib.max 0 (Atomic.get seq - capacity ())

(* Oldest-first over whatever the ring still holds; [f seq ts ev arg span].
   An entry's timestamp is its sequence number. *)
let iter_events f =
  let cap = capacity () in
  let total = Atomic.get seq in
  let count = Stdlib.min total cap in
  let start = total - count in
  let a = !ring_buf in
  for k = 0 to count - 1 do
    let base = ((start + k) land !mask) * ring_stride in
    f (start + k) (start + k) a.(base) a.(base + 1) a.(base + 2)
  done

let reset () =
  Atomic.set seq 0;
  (Domain.DLS.get span_key).sp_cur <- 0

(* --- rendering --- *)

let ring_to_string ?(limit = 64) () =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "armed %b\n" !armed;
  Printf.bprintf buf "capacity %d\n" (capacity ());
  Printf.bprintf buf "recorded %d\n" (recorded ());
  Printf.bprintf buf "dropped %d\n" (dropped ());
  let total = recorded () in
  let skip = Stdlib.max 0 (Stdlib.min total (capacity ()) - limit) in
  let shown = ref 0 in
  iter_events (fun s ts ev arg span ->
      incr shown;
      if !shown > skip then
        if span = 0 then Printf.bprintf buf "%d %d %s %d\n" s ts (event_name ev) arg
        else Printf.bprintf buf "%d %d %s %d span=%d\n" s ts (event_name ev) arg span);
  Buffer.contents buf

(* Chrome trace_event JSON (the "JSON Array Format" with a traceEvents
   wrapper), loadable in chrome://tracing and Perfetto.  Every ring entry
   becomes a global instant event; [ts] is the stamp's sequence number (the
   viewer's timescale label reads µs, which only affects the axis
   captions).  Event names are
   drawn from [event_names] and contain no characters needing escapes.

   Span-aware additions (§3.8): each distinct nonzero span among the
   retained events gets an async "b"/"e" bracket spanning its first and
   last stamp, so a request reads as one lane; each [ev_span_link] stamp
   (arg = the causing span, e.g. the mutator whose lease break forced this
   client's fallback) gets a flow "s"/"f" pair from the causing span's
   last retained event to the link — the cross-client causal edge. *)
let dump_chrome () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  (* Span extents among retained events: span -> (first_ts, last_ts).
     Render path — allocation is fine here. *)
  let extents = Hashtbl.create 64 in
  let order = ref [] in
  iter_events (fun _s ts _ev _arg span ->
      if span <> 0 then
        match Hashtbl.find_opt extents span with
        | None ->
            Hashtbl.add extents span (ts, ts);
            order := span :: !order
        | Some (t0, _) -> Hashtbl.replace extents span (t0, ts));
  iter_events (fun s ts ev arg span ->
      sep ();
      Printf.bprintf buf
        "{\"name\":\"%s\",\"cat\":\"dcache\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,\"ts\":%d,\"args\":{\"seq\":%d,\"arg\":%d,\"span\":%d}}"
        (event_name ev) ts s arg span;
      if ev = ev_span_link && arg <> 0 then
        match Hashtbl.find_opt extents arg with
        | None -> ()  (* causing span's events already overwritten *)
        | Some (_, last) ->
            sep ();
            Printf.bprintf buf
              "{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,\"pid\":1,\"tid\":1,\"ts\":%d}"
              arg last;
            sep ();
            Printf.bprintf buf
              "{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"pid\":1,\"tid\":1,\"ts\":%d}"
              arg ts);
  List.iter
    (fun span ->
      let t0, t1 = Hashtbl.find extents span in
      sep ();
      Printf.bprintf buf
        "{\"name\":\"span\",\"cat\":\"span\",\"ph\":\"b\",\"id\":%d,\"pid\":1,\"tid\":1,\"ts\":%d}"
        span t0;
      sep ();
      Printf.bprintf buf
        "{\"name\":\"span\",\"cat\":\"span\",\"ph\":\"e\",\"id\":%d,\"pid\":1,\"tid\":1,\"ts\":%d}"
        span t1)
    (List.rev !order);
  Buffer.add_string buf "]}";
  Buffer.contents buf
