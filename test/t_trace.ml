(* The §3.8 profiler: span-threaded trace ring and chrome dump flow
   linkage.

   Every test resets Trace on the way out — the ring and the spans are
   program-wide, and the suites share one binary. *)

open Kit
module Trace = Dcache_util.Trace
module Lhist = Dcache_util.Stats.Lhist
module Netfs = Dcache_fs.Netfs
module Vclock = Dcache_util.Vclock

(* --- tiny dump parsers (the dump is machine-made: exact substrings) --- *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec at i = if i + m > n then -1 else if String.sub s i m = sub then i else at (i + 1) in
  at from

(* First integer immediately following [key] at or after [from]. *)
let int_after s key from =
  match find_sub s key from with
  | -1 -> None
  | i ->
    let n = String.length s in
    let start = i + String.length key in
    let j = ref start in
    if !j < n && s.[!j] = '-' then incr j;
    while !j < n && (match s.[!j] with '0' .. '9' -> true | _ -> false) do
      incr j
    done;
    if !j = start then None else Some (int_of_string (String.sub s start (!j - start)))

(* --- ring wraparound stays coherent and the dump stays valid JSON --- *)

let test_ring_wraparound_chrome () =
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.configure ~capacity:8192;
      Trace.reset ())
    (fun () ->
      Trace.configure ~capacity:16;
      Trace.armed := true;
      (* Real workload traffic (not hand stamps): plenty of syscalls so the
         16-slot ring wraps several times over. *)
      let _kernel, p = ram_kernel ~config:Config.optimized () in
      get "tree" (S.mkdir_p p "/w");
      get "file" (S.write_file p "/w/f" "1");
      for _ = 1 to 50 do
        ignore (get "stat" (S.stat p "/w/f"))
      done;
      Trace.armed := false;
      let total = Trace.recorded () in
      Alcotest.(check bool) "ring overflowed" true (total > 16);
      Alcotest.(check int) "dropped = recorded - capacity" (total - 16) (Trace.dropped ());
      (* The retained window is exactly the newest [capacity] stamps, in
         sequence order with no holes — overwrite is coherent. *)
      let seqs = ref [] in
      Trace.iter_events (fun s _ts _ev _arg _span -> seqs := s :: !seqs);
      let seqs = List.rev !seqs in
      Alcotest.(check int) "capacity events retained" 16 (List.length seqs);
      List.iteri
        (fun k s -> Alcotest.(check int) "contiguous oldest-first" (total - 16 + k) s)
        seqs;
      (* Some retained stamps carry spans (the workload ran profiled). *)
      let spanned = ref 0 in
      Trace.iter_events (fun _ _ _ _ span -> if span <> 0 then incr spanned);
      Alcotest.(check bool) "span lane populated" true (!spanned > 0);
      let js = Trace.dump_chrome () in
      Alcotest.(check bool) "wrapped ring dumps valid JSON" true (json_valid js);
      Alcotest.(check bool) "dump carries span args" true
        (contains_substring js "\"span\":");
      Alcotest.(check bool) "render survives the wrap" true
        (contains_substring (Trace.ring_to_string ()) "dropped"))

(* --- the acceptance flow: A's mutation -> server break -> B's fallback
   renders as one connected flow in the chrome dump --- *)

let test_cross_client_flow () =
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let clock = Vclock.create () in
      let backing = Dcache_fs.Ramfs.create () in
      let server = Netfs.server ~rpc_latency_ns:1000 ~clock backing in
      let _cA, fsA = Netfs.connect_fs server in
      let kA = Kernel.create ~config:Config.optimized ~root_fs:fsA () in
      let pA = Proc.spawn kA in
      let cB, fsB = Netfs.connect_fs server in
      let kB = Kernel.create ~config:Config.optimized ~root_fs:fsB () in
      let pB = Proc.spawn kB in
      ignore kB;
      (* B warms the path and holds live leases on every component.  No
         invalidate hook on B: the lease gate alone must reject the stale
         verdict, which is exactly the link site. *)
      get "tree" (S.mkdir_p pA "/export/data");
      get "file" (S.write_file pA "/export/data/file" "v0");
      for _ = 1 to 3 do
        ignore (get "B warms" (S.stat pB "/export/data/file"))
      done;
      Trace.armed := true;
      (* Client A rewrites the file: A's request span rides the RPC; the
         server-side mutation breaks B's lease under that span and records
         it in B's break table. *)
      get "A writes" (S.write_file pA "/export/data/file" "v1");
      Alcotest.(check bool) "B's lease was broken" true
        ((Netfs.lease_stats server cB).Netfs.ls_breaks > 0);
      (* B's next lookup: warm dentries, dead lease -> gate miss consumes
         the recorded breaker span and stamps the link, then falls back. *)
      ignore (get "B re-stats" (S.stat pB "/export/data/file"));
      Trace.armed := false;
      let js = Trace.dump_chrome () in
      Alcotest.(check bool) "dump is valid JSON" true (json_valid js);
      let link = find_sub js "\"name\":\"span_link\"" 0 in
      Alcotest.(check bool) "the cross-client link was stamped" true (link >= 0);
      let breaker =
        match int_after js "\"arg\":" link with
        | Some v -> v
        | None -> Alcotest.fail "span_link instant carries no arg"
      in
      let victim =
        match int_after js "\"span\":" link with
        | Some v -> v
        | None -> Alcotest.fail "span_link instant carries no span"
      in
      Alcotest.(check bool) "breaker span is a real span" true (breaker <> 0);
      Alcotest.(check bool) "victim span is a real span" true (victim <> 0);
      Alcotest.(check bool) "two distinct requests" true (breaker <> victim);
      (* A's lane exists: at least one instant recorded under the breaker
         span before the link (the mutation's rpc_send / lease_break). *)
      let breaker_instant = find_sub js (Printf.sprintf ",\"span\":%d}" breaker) 0 in
      Alcotest.(check bool) "mutator's lane has events" true
        (breaker_instant >= 0 && breaker_instant < link);
      (* The connected flow: a flow-start anchored in the breaker's lane
         and a flow-finish at the link, same flow id. *)
      Alcotest.(check bool) "flow start from the breaker" true
        (find_sub js (Printf.sprintf "\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d," breaker) 0 >= 0);
      Alcotest.(check bool) "flow finish at the victim" true
        (find_sub js (Printf.sprintf "\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d," breaker) 0
        >= 0);
      (* Both request lanes render as async brackets. *)
      List.iter
        (fun span ->
          Alcotest.(check bool)
            (Printf.sprintf "async bracket for span %d" span)
            true
            (find_sub js (Printf.sprintf "\"cat\":\"span\",\"ph\":\"b\",\"id\":%d," span) 0 >= 0
            && find_sub js (Printf.sprintf "\"cat\":\"span\",\"ph\":\"e\",\"id\":%d," span) 0 >= 0))
        [ breaker; victim ])

(* --- span plumbing unit checks --- *)

let test_span_plumbing () =
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      Alcotest.(check int) "disarmed span_enter returns 0" 0 (Trace.span_enter ());
      Trace.armed := true;
      let s1 = Trace.span_enter () in
      let s2 = Trace.span_enter () in
      Alcotest.(check bool) "spans are nonzero" true (s1 <> 0 && s2 <> 0);
      Alcotest.(check bool) "spans are distinct" true (s1 <> s2);
      Alcotest.(check int) "current = latest" s2 (Trace.current_span ());
      let inside = Trace.with_span s1 (fun () -> Trace.current_span ()) in
      Alcotest.(check int) "with_span installs the carried span" s1 inside;
      Alcotest.(check int) "with_span restores on exit" s2 (Trace.current_span ());
      (match Trace.with_span s1 (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
      Alcotest.(check int) "with_span restores on raise" s2 (Trace.current_span ()))

let suite =
  [
    Alcotest.test_case "ring wraparound overwrites coherently; dump stays valid JSON"
      `Quick test_ring_wraparound_chrome;
    Alcotest.test_case "cross-client lease break renders as one connected flow" `Quick
      test_cross_client_flow;
    Alcotest.test_case "span minting, carry and restore" `Quick test_span_plumbing;
  ]
