(* Kernel-wide tracing & metrics (ftrace-shaped, sized for the simulator).

   Two always-compiled-in, disarmed-by-default facilities:

   - an event ring: one preallocated int array, four interleaved words per
     entry (timestamp, event id, argument, span) behind a power-of-two
     mask.  An armed [stamp] is four adjacent int stores and an increment —
     no allocation, so the ring can stay armed across a zero-allocation
     fastpath run.  Disarmed it is a single
     load-and-branch.  Timestamps are the stamp's own sequence number by
     default (a total order is what trace analysis needs); flipping
     [real_clock] stamps [Clock.monotonic_ns] instead, which buys real
     nanoseconds at the cost of a boxed Int64 per stamp.

   - per-outcome-class latency histograms ({!Stats.Lhist}): armed by
     [timing], recorded by the fastpath entry around every lookup.  The
     histogram write itself never allocates; the clock read does (see
     Clock), which is why [timing] is a separate switch from [armed].

   Why a lookup missed or an entry died is counted per kernel, by the
   cause counters of [Counters].

   Everything here is global state, like the subsystems it observes cutting
   across kernel instances; [reset ()] between experiments. *)

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

(* One flat array, four words per entry (ts, ev, arg, span interleaved):
   an armed stamp's four stores land on one or two adjacent cache lines
   instead of four distinct lines in four parallel arrays — on a ring this
   size the lanes never stay resident, so the layout is most of the armed
   stamp's cost. *)
let ring_stride = 4
let armed = ref false
let real_clock = ref false
let timing = ref false
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

(* The entry base is masked by the array's own length (capacity and stride
   are both powers of two, so entry count = length lsr 2): no bounds-check
   branch, yet memory-safe even if a racing [configure] swaps the buffer
   mid-stamp. *)
let[@inline] stamp ev arg =
  if !armed then begin
    let s = Atomic.fetch_and_add seq 1 in
    let a = !ring_buf in
    let base = (s land ((Array.length a lsr 2) - 1)) * ring_stride in
    Array.unsafe_set a base (if !real_clock then Clock.monotonic_ns () else s);
    Array.unsafe_set a (base + 1) ev;
    Array.unsafe_set a (base + 2) arg;
    Array.unsafe_set a (base + 3) (Profiler.current ())
  end

let recorded () = Atomic.get seq
let dropped () = Stdlib.max 0 (Atomic.get seq - capacity ())

(* Oldest-first over whatever the ring still holds; [f seq ts ev arg span]. *)
let iter_events f =
  let cap = capacity () in
  let total = Atomic.get seq in
  let count = Stdlib.min total cap in
  let start = total - count in
  let a = !ring_buf in
  for k = 0 to count - 1 do
    let base = ((start + k) land !mask) * ring_stride in
    f (start + k) a.(base) a.(base + 1) a.(base + 2) a.(base + 3)
  done

(* --- per-outcome-class latency histograms --- *)

let cls_fast = 0
let cls_fallback = 1
let cls_slowpath = 2
let cls_negative = 3
let cls_eio = 4
let n_classes = 5

let class_names = [| "fastpath_hit"; "fallback_hit"; "slowpath"; "negative"; "eio" |]
let class_name c = class_names.(c)

let lat = Array.init n_classes (fun _ -> Stats.Lhist.create ())
let latency c = lat.(c)

let[@inline] record_latency c ns = Stats.Lhist.record lat.(c) ns

(* Resume-depth histogram (§3.5): how many already-cached components each
   prefix-resumed miss skipped.  Not a latency class — depths, not ns — but
   the same preallocated log2 store, so recording is fastpath-safe. *)
let resume_depth = Stats.Lhist.create ()
let[@inline] record_resume_depth depth = Stats.Lhist.record resume_depth depth

(* Lease-age histogram (§3.7): how far into its ttl each lease was when the
   client consulted it at the lockless gate — ages in virtual ns, recorded
   on both verdicts (a live gate records the age served, an expired gate
   the overshoot clamped to the recordable range).  Same preallocated log2
   store as the latency classes, so the gate stays allocation-free. *)
let lease_age = Stats.Lhist.create ()
let[@inline] record_lease_age age = Stats.Lhist.record lease_age age

let histograms_to_string () =
  let buf = Buffer.create 512 in
  for c = 0 to n_classes - 1 do
    Buffer.add_string buf
      (Printf.sprintf "class %s %s\n" class_names.(c) (Stats.Lhist.to_string lat.(c)))
  done;
  Buffer.add_string buf
    (Printf.sprintf "class resume_depth %s\n" (Stats.Lhist.to_string resume_depth));
  Buffer.add_string buf
    (Printf.sprintf "class lease_age %s\n" (Stats.Lhist.to_string lease_age));
  Buffer.contents buf

(* --- arming / reset --- *)

let arm () =
  armed := true;
  timing := true

let disarm () =
  armed := false;
  timing := false

let reset () =
  Atomic.set seq 0;
  Array.iter Stats.Lhist.reset lat;
  Stats.Lhist.reset resume_depth;
  Stats.Lhist.reset lease_age

(* --- rendering --- *)

let ring_to_string ?(limit = 64) () =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "armed %b\n" !armed;
  Printf.bprintf buf "timing %b\n" !timing;
  Printf.bprintf buf "real_clock %b\n" !real_clock;
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
   becomes a global instant event; [ts] is the raw stamp (sequence number,
   or ns when [real_clock] was set — the viewer's timescale label reads µs
   either way, which only affects the axis captions).  Event names are
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
