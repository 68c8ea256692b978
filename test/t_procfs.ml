(* The /proc observability surface (PR 3): run a scripted workload with
   tracing armed, then read every file back through the ordinary file API
   and check the figures parse and agree with the OCaml-level state
   (Kernel.stats_snapshot, Trace, Fault, Netfs.rpc_stats).

   Counters keep moving while we read them — resolving "/proc/..." itself
   bumps lookup statistics — so cross-checks are monotonic (parsed value <=
   a snapshot taken afterwards), except for subsystems a procfs read cannot
   touch (fault sites, netfs RPCs), which must match exactly. *)

open Dcache_types
open Kit
module Kernel_procfs = Dcache_syscalls.Kernel_procfs
module Netfs = Dcache_fs.Netfs
module Fault = Dcache_util.Fault
module Trace = Dcache_util.Trace
module Timers = Dcache_util.Timers
module Vclock = Dcache_util.Vclock

(* --- tiny line-format parsers --- *)

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* "key value" integer lines; anything else is skipped. *)
let kv_lines s =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] -> (
        match int_of_string_opt v with Some n -> Some (k, n) | None -> None)
      | _ -> None)
    (lines s)

let assoc_or_fail what k l =
  match List.assoc_opt k l with
  | Some v -> v
  | None -> Alcotest.failf "%s: no %S line" what k

(* Pull the "class <name> ..." histogram line and read an int field out of
   its "key value key value ..." tail. *)
let hist_line body cls =
  let prefix = "class " ^ cls ^ " " in
  let plen = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l >= plen && String.sub l 0 plen = prefix)
      (lines body)
  with
  | Some l -> l
  | None -> Alcotest.failf "no histogram line for class %s" cls

let hist_field line key =
  let rec go = function
    | k :: v :: _ when k = key -> int_of_string v
    | _ :: rest -> go rest
    | [] -> Alcotest.failf "field %s missing in %S" key line
  in
  go (String.split_on_char ' ' line)

(* JSON validation lives in Kit ([Kit.json_valid]), shared with t_trace. *)

let read p path = get ("read " ^ path) (S.read_file p path)

(* --- the scripted workload + full surface read-back --- *)

let arm_lookup_timers kernel = Timers.arm (Kernel.timers kernel) Timers.Lookups true

let test_proc_observability_surface () =
  Trace.reset ();
  Trace.armed := true;
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let faults = Fault.create ~seed:5 () in
      let kernel, p = ram_kernel ~config:Config.optimized () in
      arm_lookup_timers kernel;
      (* A netfs mount so /proc/netfs/rpc has something to report. *)
      let vclock = Vclock.create () in
      let server = Netfs.server ~faults ~clock:vclock (Dcache_fs.Ramfs.create ()) in
      let client = Netfs.client ~protocol:Netfs.Stateful server in
      get "mkdir /net" (S.mkdir_p p "/net");
      get "mount net" (S.mount_fs p client "/net");
      get "mkdir /proc" (S.mkdir_p p "/proc");
      get "mount proc"
        (S.mount_fs p (Kernel_procfs.make ~faults ~netfs:server kernel) "/proc");
      (* Maildir-ish workload: deliver, warm re-stats, negatives, rename and
         chmod churn — every outcome class and cause the surface reports. *)
      get "tree" (S.mkdir_p p "/mail/cur");
      for i = 1 to 20 do
        get "deliver" (S.write_file p (Printf.sprintf "/mail/cur/msg%d" i) "x")
      done;
      for _ = 1 to 5 do
        for i = 1 to 20 do
          ignore (get "warm stat" (S.stat p (Printf.sprintf "/mail/cur/msg%d" i)))
        done
      done;
      for _ = 1 to 10 do
        expect_err Errno.ENOENT "absent" (S.stat p "/mail/cur/absent")
      done;
      get "rename" (S.rename p "/mail/cur/msg1" "/mail/cur/msg1.read");
      get "chmod" (S.chmod p "/mail/cur" 0o700);
      ignore (get "re-stat renamed" (S.stat p "/mail/cur/msg1.read"));
      (* Netfs traffic with one forced drop: the first RPC after arming is
         lost, the client times out and retries. *)
      get "netfs write" (S.write_file p "/net/f" "hello");
      Fault.arm (Fault.site faults "netfs.drop") (Fault.Nth 1);
      get "netfs write 2" (S.write_file p "/net/g" "world");
      ignore (get "netfs stat" (S.stat p "/net/g"));

      (* /proc/dcache/stats: parses, live, and every counter figure is
         bounded by a later Kernel snapshot.  [dlht_] and [pcc_] lines are
         gauges, not counters: the DLHT's are cross-checked against
         Dlht.occupancy here, the PCC's in [test_pcc_surface]. *)
      let stats = kv_lines (read p "/proc/dcache/stats") in
      let dlht =
        Option.get (Dcache_core.Dlht.of_namespace_opt (Kernel.init_ns kernel))
      in
      let occ = Dcache_core.Dlht.occupancy dlht in
      Alcotest.(check bool) "stats report fastpath hits" true
        (assoc_or_fail "stats" "fastpath_hit" stats > 0);
      let is_gauge k =
        String.starts_with ~prefix:"dlht_" k || String.starts_with ~prefix:"pcc_" k
      in
      let snapshot = Kernel.stats_snapshot kernel in
      List.iter
        (fun (k, v) ->
          if not (is_gauge k) then begin
            let now = match List.assoc_opt k snapshot with Some n -> n | None -> 0 in
            if v < 0 || v > now then
              Alcotest.failf "counter %s: procfs read %d, later snapshot %d" k v now
          end)
        stats;
      (* The DLHT gauges agree with the table read directly (the stats read
         itself populates /proc dentries, so gauges may only have grown by
         the time of the direct read). *)
      Alcotest.(check int) "dlht attached" 1 (assoc_or_fail "stats" "dlht_attached" stats);
      Alcotest.(check bool) "dlht population live and bounded" true
        (let v = assoc_or_fail "stats" "dlht_population" stats in
         v > 0 && v <= Dcache_core.Dlht.population dlht);
      Alcotest.(check int) "dlht bucket count" occ.Dcache_core.Dlht.occ_buckets
        (assoc_or_fail "stats" "dlht_buckets" stats);
      Alcotest.(check bool) "dlht longest chain live and bounded" true
        (let v = assoc_or_fail "stats" "dlht_longest_chain" stats in
         v >= 1 && v <= occ.Dcache_core.Dlht.occ_longest);
      Alcotest.(check int) "dlht resizes agree"
        (Dcache_core.Dlht.resizes dlht)
        (assoc_or_fail "stats" "dlht_resizes" stats);
      Alcotest.(check int) "no sigless scans in a healthy run" 0
        (assoc_or_fail "stats" "dlht_sigless_scans" stats);

      (* /proc/dcache/histograms: the three classes this workload exercises
         are non-empty with ordered, positive percentiles. *)
      let hist = read p "/proc/dcache/histograms" in
      List.iter
        (fun cls ->
          let line = hist_line hist cls in
          let n = hist_field line "n" in
          let p50 = hist_field line "p50" in
          let p90 = hist_field line "p90" in
          let p99 = hist_field line "p99" in
          let vmax = hist_field line "max" in
          Alcotest.(check bool) (cls ^ " populated") true (n > 0);
          Alcotest.(check bool) (cls ^ " p50 positive") true (p50 > 0);
          Alcotest.(check bool)
            (cls ^ " percentiles ordered") true
            (p50 <= p90 && p90 <= p99 && p99 <= vmax))
        [ "fastpath_hit"; "fallback_hit"; "negative" ];
      Alcotest.(check int) "no EIO was recorded" 0
        (hist_field (hist_line hist "eio") "n");
      (* Histogram counts never exceed the corresponding kernel counters
         (each timed outcome bumped its counter too). *)
      let snapshot = Kernel.stats_snapshot kernel in
      Alcotest.(check bool) "fast-hit histogram bounded by counter" true
        (hist_field (hist_line hist "fastpath_hit") "n"
        <= assoc_or_fail "snapshot" "fastpath_hit" snapshot);
      Alcotest.(check bool) "fallback histogram bounded by counter" true
        (hist_field (hist_line hist "fallback_hit") "n"
        <= assoc_or_fail "snapshot" "fastpath_fallback" snapshot);

      (* /proc/dcache/causes: the churn above must attribute misses. *)
      let causes = kv_lines (read p "/proc/dcache/causes") in
      List.iter
        (fun k ->
          Alcotest.(check bool) ("cause " ^ k ^ " seen") true
            (assoc_or_fail "causes" k causes > 0))
        [ "cold"; "invalidated_by_rename"; "invalidated_by_chmod" ];
      Alcotest.(check (list string)) "the six causes, in order"
        [ "cold"; "invalidated_by_rename"; "invalidated_by_chmod"; "seqcount_retry";
          "dir_incomplete"; "quarantined" ]
        (List.map fst causes);
      let snapshot = Kernel.stats_snapshot kernel in
      List.iter
        (fun (k, v) ->
          Alcotest.(check bool) ("cause " ^ k ^ " bounded") true
            (v >= 0 && v <= assoc_or_fail "snapshot" k snapshot))
        causes;

      (* /proc/dcache/trace: armed, non-empty, and every event line names a
         known event. *)
      let trace_body = read p "/proc/dcache/trace" in
      Alcotest.(check bool) "ring reports armed" true
        (contains_substring trace_body "armed true");
      Alcotest.(check bool) "ring recorded events" true
        (assoc_or_fail "trace" "recorded" (kv_lines trace_body) > 0);
      let known = List.init Trace.n_events Trace.event_name in
      let event_lines =
        List.filter_map
          (fun line ->
            (* [seq ts name arg], with a [span=N] suffix under a span. *)
            match String.split_on_char ' ' line with
            | s :: ts :: name :: arg :: span
              when int_of_string_opt s <> None
                   && int_of_string_opt ts <> None
                   && int_of_string_opt arg <> None
                   && (match span with
                      | [] -> true
                      | [ sp ] -> String.starts_with ~prefix:"span=" sp
                      | _ -> false) ->
              Some name
            | _ -> None)
          (lines trace_body)
      in
      Alcotest.(check bool) "trace shows event lines" true (event_lines <> []);
      List.iter
        (fun name ->
          Alcotest.(check bool) ("known event " ^ name) true (List.mem name known))
        event_lines;

      (* /proc/faults: the armed-then-fired drop site, figures exact. *)
      let faults_body = read p "/proc/faults" in
      Alcotest.(check bool) "injector seed" true
        (contains_substring faults_body "seed 5");
      let drop = Fault.site faults "netfs.drop" in
      Alcotest.(check bool) "drop site line" true
        (contains_substring faults_body
           (Printf.sprintf "site netfs.drop schedule off arrivals %d injected %d"
              (Fault.arrivals drop) (Fault.injected drop)));
      Alcotest.(check bool) "the drop fired" true (Fault.injected drop >= 1);

      (* /proc/netfs/rpc: exact agreement with the server's stats (a procfs
         read cannot generate RPCs). *)
      let rpc = kv_lines (read p "/proc/netfs/rpc") in
      let s = Netfs.rpc_stats server in
      Alcotest.(check int) "rpcs" (Netfs.rpc_count server)
        (assoc_or_fail "rpc" "rpcs" rpc);
      Alcotest.(check int) "drops" s.Netfs.rs_drops (assoc_or_fail "rpc" "drops" rpc);
      Alcotest.(check int) "retries" s.Netfs.rs_retries
        (assoc_or_fail "rpc" "retries" rpc);
      Alcotest.(check int) "giveups" s.Netfs.rs_giveups
        (assoc_or_fail "rpc" "giveups" rpc);
      Alcotest.(check int) "drc_hits" s.Netfs.rs_drc_hits
        (assoc_or_fail "rpc" "drc_hits" rpc);
      Alcotest.(check bool) "traffic flowed" true
        (assoc_or_fail "rpc" "rpcs" rpc > 0);
      Alcotest.(check bool) "the drop cost a retry" true
        (s.Netfs.rs_drops >= 1 && s.Netfs.rs_retries >= 1);
      Alcotest.(check int) "partitions" s.Netfs.rs_partitions
        (assoc_or_fail "rpc" "partitions" rpc);
      Alcotest.(check int) "crashes" s.Netfs.rs_crashes
        (assoc_or_fail "rpc" "crashes" rpc);
      Alcotest.(check int) "fenced" s.Netfs.rs_fenced (assoc_or_fail "rpc" "fenced" rpc);
      (* The per-site fault tallies enumerate the server's link exactly. *)
      let rpc_body = read p "/proc/netfs/rpc" in
      let netfs_sites = Netfs.fault_sites server in
      Alcotest.(check int) "four link sites" 4 (List.length netfs_sites);
      Alcotest.(check int) "fault_sites count" (List.length netfs_sites)
        (assoc_or_fail "rpc" "fault_sites" rpc);
      List.iter
        (fun site ->
          Alcotest.(check bool)
            ("per-site line for " ^ Fault.name site)
            true
            (contains_substring rpc_body
               (Printf.sprintf "site %s arrivals %d injected %d" (Fault.name site)
                  (Fault.arrivals site) (Fault.injected site))))
        netfs_sites;

      (* /proc/netfs/leases: the lease book (§3.7), figures exact. *)
      let leases_body = read p "/proc/netfs/leases" in
      let leases = kv_lines leases_body in
      Alcotest.(check int) "epoch" (Netfs.epoch server)
        (assoc_or_fail "leases" "epoch" leases);
      Alcotest.(check int) "ttl" (Netfs.lease_ttl_ns server)
        (assoc_or_fail "leases" "lease_ttl_ns" leases);
      Alcotest.(check int) "skew" (Netfs.lease_skew_ns server)
        (assoc_or_fail "leases" "lease_skew_ns" leases);
      Alcotest.(check int) "grace" (Netfs.grace_ns server)
        (assoc_or_fail "leases" "grace_ns" leases);
      Alcotest.(check int) "grant gauge" (Netfs.grant_count server)
        (assoc_or_fail "leases" "grants" leases);
      Alcotest.(check int) "client count" (List.length (Netfs.clients server))
        (assoc_or_fail "leases" "clients" leases);
      Alcotest.(check bool) "stateful traffic earned leases" true
        (assoc_or_fail "leases" "grants" leases > 0);
      List.iter
        (fun c ->
          let ls = Netfs.lease_stats server c in
          Alcotest.(check bool)
            (Printf.sprintf "client %d lease line" (Netfs.client_id c))
            true
            (contains_substring leases_body
               (Printf.sprintf
                  "client %d epoch %d granted %d live %d gate_live %d gate_expired %d \
                   gate_miss %d breaks %d fences %d"
                  (Netfs.client_id c) (Netfs.client_epoch c) ls.Netfs.ls_grants
                  ls.Netfs.ls_live ls.Netfs.ls_gate_live ls.Netfs.ls_gate_expired
                  ls.Netfs.ls_gate_miss ls.Netfs.ls_breaks ls.Netfs.ls_fences)))
        (Netfs.clients server))

(* --- prefix-resume observability (§3.5) ---

   Drive the three §3.5 outcome classes — resumed cold misses, a
   negative-ancestor fast-fail, DIR_COMPLETE fast-fails — then read the new
   counters, the resume-depth histogram and the summary gauges back through
   /proc and cross-check them against the kernel-side figures.  The Chrome
   dump must stay valid JSON with the new event kinds present. *)

let test_prefix_resume_surface () =
  Trace.reset ();
  Trace.armed := true;
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let kernel, p = ram_kernel ~config:Config.optimized () in
      get "mkdir /proc" (S.mkdir_p p "/proc");
      get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
      let deep = "/p0/p1/p2/p3/p4/p5/p6/p7/p8/p9/p10/p11" in
      get "chain" (S.mkdir_p p deep);
      for i = 1 to 30 do
        get "leaf" (S.write_file p (Printf.sprintf "%s/m%d" deep i) "x")
      done;
      (* Purge, re-warm only the chain: the leaf stats below are cold DLHT
         misses with twelve cached ancestors — prefix-resumed walks. *)
      Kernel.drop_caches kernel;
      ignore (get "warm chain" (S.stat p deep));
      for i = 1 to 30 do
        ignore (get "cold leaf" (S.stat p (Printf.sprintf "%s/m%d" deep i)))
      done;
      (* A walked negative under the deep dir, then a path *below* it: the
         second lookup fast-fails from the cached negative ancestor. *)
      expect_err Errno.ENOENT "ghost" (S.stat p (deep ^ "/ghost"));
      expect_err Errno.ENOENT "below ghost" (S.stat p (deep ^ "/ghost/a/b"));
      (* DIR_COMPLETE fast-fail: complete the dir, then probe fresh absent
         names (no negative dentry exists — the verdict comes from
         completeness of the deepest cached ancestor). *)
      ignore (get "readdir" (S.readdir_path p deep));
      for i = 1 to 10 do
        expect_err Errno.ENOENT "absent" (S.stat p (Printf.sprintf "%s/none%d" deep i))
      done;

      let stats = kv_lines (read p "/proc/dcache/stats") in
      let resumes = assoc_or_fail "stats" "fastpath_prefix_resume" stats in
      let negfails = assoc_or_fail "stats" "fastpath_prefix_negfail" stats in
      Alcotest.(check bool) "resumes reported" true (resumes >= 30);
      Alcotest.(check bool) "negative fast-fails reported" true (negfails >= 11);
      let snapshot = Kernel.stats_snapshot kernel in
      let snap k = match List.assoc_opt k snapshot with Some v -> v | None -> 0 in
      Alcotest.(check bool) "resume counter bounded by snapshot" true
        (resumes <= snap "fastpath_prefix_resume");
      Alcotest.(check bool) "negfail counter bounded by snapshot" true
        (negfails <= snap "fastpath_prefix_negfail");
      (* Every resumed fallback ran exactly one resumed walk. *)
      Alcotest.(check int) "walk_resumed agrees with the resume counter"
        (snap "fastpath_prefix_resume") (snap "walk_resumed");

      (* Resume-depth histogram: populated, bounded by the chain depth, and
         never more samples than resumes.  The /proc reads themselves keep
         resuming (their dentries go cold too), so figures read later may
         only have grown — compare against fresh kernel-side state. *)
      let hist = read p "/proc/dcache/histograms" in
      let line = hist_line hist "resume_depth" in
      let n = hist_field line "n" in
      Alcotest.(check bool) "resume depths recorded" true (n > 0);
      let resumes_now =
        match List.assoc_opt "fastpath_prefix_resume" (Kernel.stats_snapshot kernel) with
        | Some v -> v
        | None -> 0
      in
      Alcotest.(check bool) "one depth sample per resume" true (n <= resumes_now);
      Alcotest.(check bool) "depth bounded by the chain" true
        (hist_field line "max" <= 12);
      Alcotest.(check bool) "depth positive" true (hist_field line "min" >= 1);
      Alcotest.(check bool) "histogram bounded by the kernel's timer" true
        (n
        <= Dcache_util.Stats.Lhist.count
             (Timers.get (Kernel.timers kernel) Timers.resume_depth));

      (* Summary gauges and the config line. *)
      let summary = kv_lines (read p "/proc/dcache/summary") in
      Alcotest.(check bool) "summary resume_depth_n gauge live" true
        (assoc_or_fail "summary" "resume_depth_n" summary >= n);
      Alcotest.(check bool) "summary resume_depth_max gauge" true
        (assoc_or_fail "summary" "resume_depth_max" summary <= 12);
      Alcotest.(check bool) "config reports prefix_resume" true
        (contains_substring (read p "/proc/dcache/config") "prefix_resume true");

      (* The Chrome dump stays valid JSON and carries the new kinds. *)
      let js = Trace.dump_chrome () in
      Alcotest.(check bool) "chrome dump valid with new events" true (json_valid js);
      Alcotest.(check bool) "dump names prefix_resume" true
        (contains_substring js "\"name\":\"prefix_resume\"");
      Alcotest.(check bool) "dump names prefix_negfail" true
        (contains_substring js "\"name\":\"prefix_negfail\""))

(* The PCC's figures: the refill counter and the root credential's table
   gauges read back exactly.  The /proc reads themselves are DLHT misses
   or PCC hits, never refills, and touch too few entries to grow it. *)
let test_pcc_surface () =
  let kernel, p = ram_kernel ~config:{ Config.optimized with Config.pcc_entries = 8192 } () in
  let files = 5000 in
  let path i = Printf.sprintf "/pub/d%02d/f%04d" (i mod 20) i in
  for d = 0 to 19 do
    get "dir" (S.mkdir_p p (Printf.sprintf "/pub/d%02d" d))
  done;
  for i = 0 to files - 1 do
    get "file" (S.write_file p (path i) "x")
  done;
  (* Cold walks publish more than the initial 4096 entries: it grows. *)
  Kernel.drop_caches kernel;
  for i = 0 to files - 1 do
    ignore (get "cold stat" (S.stat p (path i)))
  done;
  (* A same-mode chmod bumps every version below /pub: the next stat
     climbs from the file to /pub and refills.  /pub's own entry must be
     in the table for the climb to stop there, and which entries share a
     set with it depends on the program-wide dentry ids: a stat puts it
     back if 5,000 inserts evicted it. *)
  ignore (get "stat /pub" (S.stat p "/pub"));
  get "chmod" (S.chmod p "/pub" 0o755);
  Kernel.reset_stats kernel;
  ignore (get "refill" (S.stat p (path 0)));
  get "mkdir /proc" (S.mkdir_p p "/proc");
  get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
  let stats = kv_lines (read p "/proc/dcache/stats") in
  let pcc =
    Dcache_core.Pcc.of_cred_exn (Kernel.root_cred kernel) (Kernel.init_ns kernel)
  in
  Alcotest.(check int) "one refill" 1 (counter kernel "fastpath_pcc_refill");
  Alcotest.(check int) "refill counter read back" 1
    (assoc_or_fail "stats" "fastpath_pcc_refill" stats);
  Alcotest.(check bool) "the table grew" true (Dcache_core.Pcc.grows pcc > 0);
  Alcotest.(check int) "pcc_capacity read back" (Dcache_core.Pcc.capacity pcc)
    (assoc_or_fail "stats" "pcc_capacity" stats);
  Alcotest.(check int) "pcc_grows read back" (Dcache_core.Pcc.grows pcc)
    (assoc_or_fail "stats" "pcc_grows" stats);
  Alcotest.(check bool) "config names the one knob" true
    (contains_substring (read p "/proc/dcache/config") "pcc_entries 8192");
  Alcotest.(check bool) "no second PCC knob" false
    (contains_substring (read p "/proc/dcache/config") "pcc_max")

let test_chrome_dump_is_valid_json () =
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      Alcotest.(check bool) "empty ring dumps valid JSON" true
        (json_valid (Trace.dump_chrome ()));
      Trace.armed := true;
      let kernel, p = ram_kernel ~config:Config.optimized () in
      ignore kernel;
      get "tree" (S.mkdir_p p "/x/y");
      get "file" (S.write_file p "/x/y/f" "1");
      for _ = 1 to 5 do
        ignore (get "stat" (S.stat p "/x/y/f"))
      done;
      Trace.armed := false;
      let js = Trace.dump_chrome () in
      Alcotest.(check bool) "workload ring dumps valid JSON" true (json_valid js);
      Alcotest.(check bool) "has a traceEvents array" true
        (contains_substring js "\"traceEvents\":[");
      Alcotest.(check bool) "contains stamped events" true
        (contains_substring js "\"name\":\"fastpath_hit\""))

(* --- sharded mutation path observability (§3.6) ---

   Drive churn that stays on the sharded path (create over a cached
   negative, rename to a vacated name, unlink), then read the lock table
   back through /proc/dcache/stripes and cross-check it against the
   Locktab directly.  /proc reads never take stripes (lookups are
   lockless, populate runs write-locked), so the figures are exact. *)

let test_stripes_surface () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "mkdir /proc" (S.mkdir_p p "/proc");
  get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
  get "tree" (S.mkdir_p p "/sh");
  let f i = Printf.sprintf "/sh/f%d" i in
  let g i = Printf.sprintf "/sh/g%d" i in
  for i = 0 to 19 do
    get "seed" (S.write_file p (f i) "x")
  done;
  for i = 0 to 19 do
    get "vacate" (S.unlink p (f i))
  done;
  for i = 0 to 19 do
    get "sharded create" (S.write_file p (f i) "x")
  done;
  for i = 0 to 19 do
    get "sharded rename" (S.rename p (f i) (g i))
  done;
  for i = 0 to 19 do
    get "sharded unlink" (S.unlink p (g i))
  done;
  let body = read p "/proc/dcache/stripes" in
  let kv = kv_lines body in
  Alcotest.(check int) "stripe count matches config" 128
    (assoc_or_fail "stripes" "stripes" kv);
  let acquired = assoc_or_fail "stripes" "acquired" kv in
  let contended = assoc_or_fail "stripes" "contended" kv in
  Alcotest.(check bool) "the churn acquired stripes" true (acquired > 0);
  let per_stripe =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "stripe"; i; a; c ] ->
          Some (int_of_string i, int_of_string a, int_of_string c)
        | _ -> None)
      (lines body)
  in
  Alcotest.(check int) "one line per stripe" 128 (List.length per_stripe);
  let sum_a = List.fold_left (fun s (_, a, _) -> s + a) 0 per_stripe in
  let sum_c = List.fold_left (fun s (_, _, c) -> s + c) 0 per_stripe in
  Alcotest.(check int) "per-stripe acquisitions sum to the header" acquired sum_a;
  Alcotest.(check int) "per-stripe contentions sum to the header" contended sum_c;
  (* Residual global-write accounting rides the sharded report: the figure
     must parse and agree with the counter (a /proc read never takes the
     write lock, so it is exact at the moment of the read). *)
  let globals = assoc_or_fail "stripes" "global_write_acquired" kv in
  Alcotest.(check int) "global_write_acquired agrees with the counter"
    (Kit.counter kernel "global_write_acquired")
    globals;
  (match Dcache_vfs.Dcache.stripes (Kernel.dcache kernel) with
  | None -> Alcotest.fail "sharded config lost its lock table"
  | Some tab ->
    let a_now, c_now = Dcache_util.Locktab.totals tab in
    Alcotest.(check int) "acquisitions agree with the table" a_now acquired;
    Alcotest.(check int) "contentions agree with the table" c_now contended);
  (* The sharded syscall counters surface in stats too. *)
  let stats = kv_lines (read p "/proc/dcache/stats") in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " surfaced") true (assoc_or_fail "stats" k stats > 0))
    [ "sharded_create"; "sharded_rename"; "sharded_unlink" ];
  Alcotest.(check bool) "config reports the stripe count" true
    (contains_substring (read p "/proc/dcache/config") "dcache_stripes 128");
  Alcotest.(check bool) "stripe contention trace event registered" true
    (List.mem "stripe_contended" (List.init Trace.n_events Trace.event_name));
  (* The unsharded fallback renders an honest placeholder. *)
  let _kernel0, p0 =
    ram_kernel ~config:{ Config.optimized with Config.dcache_stripes = 0 } ()
  in
  get "mkdir /proc" (S.mkdir_p p0 "/proc");
  (match Dcache_vfs.Dcache.stripes (Kernel.dcache _kernel0) with
  | None -> ()
  | Some _ -> Alcotest.fail "dcache_stripes=0 built a lock table");
  get "mount proc" (S.mount_fs p0 (Kernel_procfs.make _kernel0) "/proc");
  Alcotest.(check string) "stripes file says 0" "stripes 0\n"
    (read p0 "/proc/dcache/stripes");
  Alcotest.(check bool) "config reports stripes off" true
    (contains_substring (read p0 "/proc/dcache/config") "dcache_stripes 0")

(* --- per-stripe negative lists via /proc/dcache/neglists (§6.3) ---

   Drive a stat storm of absent names (filling the lists), a create over a
   cached negative (the shortcut) and a per-mount generation invalidation,
   then read the book back: the cap, the list count, internally consistent
   occupancy lines, and the eviction/invalidation/shortcut counters. *)

let test_neglists_surface () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "mkdir /proc" (S.mkdir_p p "/proc");
  get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
  get "dir" (S.mkdir_p p "/nl");
  (* Completeness lost: only an incomplete /nl caches its absent names. *)
  Kernel.drop_caches kernel;
  for i = 0 to 29 do
    expect_err Errno.ENOENT "absent" (S.stat p (Printf.sprintf "/nl/ghost%d" i))
  done;
  get "create over a cached negative" (S.write_file p "/nl/ghost0" "x");
  get "invalidate" (S.invalidate_negatives p "/nl");
  let body = read p "/proc/dcache/neglists" in
  let kv = kv_lines body in
  Alcotest.(check int) "cap matches config"
    (Kernel.config kernel).Config.neg_list_cap
    (assoc_or_fail "neglists" "neg_list_cap" kv);
  let occ = Dcache_vfs.Dcache.neg_occupancy (Kernel.dcache kernel) in
  let nlists = assoc_or_fail "neglists" "neg_lists" kv in
  Alcotest.(check int) "list count" (Array.length occ) nlists;
  let per_list =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "neglist"; i; "occupancy"; n ] -> Some (int_of_string i, int_of_string n)
        | _ -> None)
      (lines body)
  in
  Alcotest.(check int) "one occupancy line per list" nlists (List.length per_list);
  let total = assoc_or_fail "neglists" "neg_cached" kv in
  Alcotest.(check int) "occupancy lines sum to the total" total
    (List.fold_left (fun s (_, n) -> s + n) 0 per_list);
  Alcotest.(check bool) "the storm left cached negatives" true (total > 0);
  List.iter
    (fun (_, n) ->
      Alcotest.(check bool) "every list within the cap" true
        (n <= (Kernel.config kernel).Config.neg_list_cap))
    per_list;
  Alcotest.(check bool) "generation invalidation surfaced" true
    (assoc_or_fail "neglists" "neg_gen_invalidations" kv >= 1);
  Alcotest.(check bool) "create shortcut surfaced" true
    (assoc_or_fail "neglists" "create_neg_shortcut" kv >= 1);
  Alcotest.(check int) "eviction figure agrees with the counter"
    (counter kernel "neg_evicted")
    (assoc_or_fail "neglists" "neg_evicted" kv);
  Alcotest.(check bool) "config reports the cap" true
    (contains_substring
       (read p "/proc/dcache/config")
       (Printf.sprintf "neg_list_cap %d" (Kernel.config kernel).Config.neg_list_cap));
  (* The unsharded fallback keeps one list (index 0) and still renders. *)
  let kernel0, p0 =
    ram_kernel ~config:{ Config.optimized with Config.dcache_stripes = 0 } ()
  in
  get "mkdir /proc" (S.mkdir_p p0 "/proc");
  get "mount proc" (S.mount_fs p0 (Kernel_procfs.make kernel0) "/proc");
  get "dir" (S.mkdir_p p0 "/nl");
  Kernel.drop_caches kernel0;
  expect_err Errno.ENOENT "absent" (S.stat p0 "/nl/gone");
  let kv0 = kv_lines (read p0 "/proc/dcache/neglists") in
  Alcotest.(check int) "unsharded: one list" 1
    (assoc_or_fail "neglists" "neg_lists" kv0);
  Alcotest.(check bool) "unsharded: negative tracked" true
    (assoc_or_fail "neglists" "neg_cached" kv0 >= 1)

(* A pseudo-file's size is cached at its first lookup, but its rendering
   grows: a later read must still return the whole current rendering.
   Read /proc/dcache/trace while the ring is empty, drive a traced
   workload, read it again and find every retained event's line. *)
let test_trace_reread_in_full () =
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let kernel, p = ram_kernel ~config:Config.optimized () in
      get "mkdir /proc" (S.mkdir_p p "/proc");
      get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
      let event_lines body =
        List.filter (fun l -> l <> "" && l.[0] >= '0' && l.[0] <= '9') (lines body)
      in
      Alcotest.(check int) "empty ring: no event line" 0
        (List.length (event_lines (read p "/proc/dcache/trace")));
      let ndirs = 6 in
      let file i = Printf.sprintf "/reread%d/f" i in
      for i = 0 to ndirs - 1 do
        get "mkdir" (S.mkdir_p p (Printf.sprintf "/reread%d" i));
        get "seed" (S.write_file p (file i) "x");
        ignore (get "warm" (S.stat p (file i)))
      done;
      Trace.armed := true;
      for i = 0 to ndirs - 1 do
        for _ = 0 to i do
          ignore (get "hit" (S.stat p (file i)))
        done
      done;
      Trace.armed := false;
      let body = read p "/proc/dcache/trace" in
      Alcotest.(check string) "the whole current rendering" (Trace.ring_to_string ()) body;
      Alcotest.(check int) "one line per retained event"
        (Int.min (Trace.recorded ()) 64)
        (List.length (event_lines body)))

(* Two kernels in one program, different workloads: A only hits warm
   files, B only resumes cold misses and answers absent names.  Each
   kernel's /proc/dcache/histograms and summary resume_depth lines must
   show its own figures and none of the other's. *)
let test_two_kernels_read_their_own () =
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let setup () =
        let kernel, p = ram_kernel ~config:Config.optimized () in
        get "mkdir /proc" (S.mkdir_p p "/proc");
        get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
        (kernel, p)
      in
      let ka, pa = setup () in
      let kb, pb = setup () in
      get "A tree" (S.mkdir_p pa "/adir");
      get "A file" (S.write_file pa "/adir/f" "x");
      ignore (get "A warm" (S.stat pa "/adir/f"));
      let deep = "/b0/b1/b2/b3/b4/b5" in
      get "B tree" (S.mkdir_p pb deep);
      for i = 1 to 10 do
        get "B leaf" (S.write_file pb (Printf.sprintf "%s/m%d" deep i) "x")
      done;
      Kernel.drop_caches kb;
      ignore (get "B warm chain" (S.stat pb deep));
      List.iter Kernel.reset_stats [ ka; kb ];
      Timers.arm (Kernel.timers ka) Timers.Lookups true;
      Timers.arm (Kernel.timers kb) Timers.Lookups true;
      Trace.armed := true;
      for _ = 1 to 20 do
        ignore (get "A hit" (S.stat pa "/adir/f"))
      done;
      for i = 1 to 10 do
        ignore (get "B resumed miss" (S.stat pb (Printf.sprintf "%s/m%d" deep i)))
      done;
      Trace.armed := false;
      Timers.arm (Kernel.timers ka) Timers.Lookups false;
      Timers.arm (Kernel.timers kb) Timers.Lookups false;
      let resumes_b = counter kb "fastpath_prefix_resume" in
      Alcotest.(check bool) "B resumed its misses" true (resumes_b >= 10);
      Alcotest.(check int) "A resumed nothing" 0 (counter ka "fastpath_prefix_resume");
      (* Opening a /proc file may itself resume from /proc: A's resume
         depths are bounded by A's own resume counter, read afterwards. *)
      let hist p cls = hist_field (hist_line (read p "/proc/dcache/histograms") cls) "n" in
      Alcotest.(check bool) "A's hits in A's histograms" true (hist pa "fastpath_hit" >= 20);
      Alcotest.(check int) "no fallbacks in A's histograms" 0 (hist pa "fallback_hit");
      let a_depths = hist pa "resume_depth" in
      Alcotest.(check bool) "only A's own resumes in A's histograms" true
        (a_depths <= counter ka "fastpath_prefix_resume");
      Alcotest.(check bool) "B's resumes in B's histograms" true (hist pb "resume_depth" >= 10);
      Alcotest.(check bool) "B's fallbacks in B's histograms" true
        (hist pb "fallback_hit" >= 10);
      let summary p = kv_lines (read p "/proc/dcache/summary") in
      let a_summary = assoc_or_fail "summary" "resume_depth_n" (summary pa) in
      Alcotest.(check bool) "A's summary: only its own resumes" true
        (a_summary <= counter ka "fastpath_prefix_resume");
      Alcotest.(check bool) "B's summary: its resumes" true
        (assoc_or_fail "summary" "resume_depth_n" (summary pb) >= 10))

let test_procfs_without_attachments () =
  (* The optional subsystems default off; the files still exist and say so
     (and old Kernel_procfs.make callers keep working). *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "mkdir /proc" (S.mkdir_p p "/proc");
  get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
  Alcotest.(check bool) "faults placeholder" true
    (contains_substring (read p "/proc/faults") "no injector attached");
  Alcotest.(check bool) "netfs placeholder" true
    (contains_substring (read p "/proc/netfs/rpc") "no netfs server attached");
  Alcotest.(check bool) "leases placeholder" true
    (contains_substring (read p "/proc/netfs/leases") "no netfs server attached");
  (* Disarmed tracing still renders a complete, parseable surface. *)
  let hist = read p "/proc/dcache/histograms" in
  Alcotest.(check bool) "histogram lines render disarmed" true
    (hist_line hist "slowpath" <> "");
  Alcotest.(check bool) "trace header renders disarmed" true
    (contains_substring (read p "/proc/dcache/trace") "armed false")

(* The /proc tree is a fixed set of files: listing each directory names
   exactly these, each file renders something, and a name outside the set
   (the retired per-directory sketch's hot file among them) is ENOENT. *)
let test_procfs_file_set () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "mkdir /proc" (S.mkdir_p p "/proc");
  get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
  let names dir =
    List.sort String.compare
      (List.map
         (fun e -> e.Dcache_fs.Fs_intf.name)
         (get ("list " ^ dir) (S.readdir_path p dir)))
  in
  Alcotest.(check (list string)) "/proc" [ "dcache"; "faults"; "netfs"; "version" ]
    (names "/proc");
  let dcache_files =
    [
      "batch";
      "causes";
      "config";
      "histograms";
      "neglists";
      "stats";
      "stripes";
      "summary";
      "trace";
    ]
  in
  Alcotest.(check (list string)) "/proc/dcache" dcache_files (names "/proc/dcache");
  Alcotest.(check (list string)) "/proc/netfs" [ "leases"; "rpc" ] (names "/proc/netfs");
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " renders") true (read p path <> ""))
    ("/proc/version" :: "/proc/faults" :: "/proc/netfs/rpc" :: "/proc/netfs/leases"
    :: List.map (fun f -> "/proc/dcache/" ^ f) dcache_files);
  expect_err Errno.ENOENT "no hot file" (S.stat p "/proc/dcache/hot")

let test_procfs_zero_traffic_netfs () =
  (* A server that exists but has served nothing renders all-zero figures —
     the "no … attached" placeholder is reserved for a genuinely absent
     server, so monitoring can tell "idle" from "not wired up". *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  let vclock = Vclock.create () in
  let server = Netfs.server ~clock:vclock (Dcache_fs.Ramfs.create ()) in
  get "mkdir /proc" (S.mkdir_p p "/proc");
  get "mount proc" (S.mount_fs p (Kernel_procfs.make ~netfs:server kernel) "/proc");
  let body = read p "/proc/netfs/rpc" in
  Alcotest.(check bool) "no placeholder for an attached, idle server" false
    (contains_substring body "no netfs server attached");
  let rpc = kv_lines body in
  List.iter
    (fun k -> Alcotest.(check int) ("zero " ^ k) 0 (assoc_or_fail "rpc" k rpc))
    [
      "rpcs"; "drops"; "delays"; "retries"; "giveups"; "drc_hits"; "partitions";
      "crashes"; "fenced";
    ];
  (* No injector on the link: the site list renders empty, not omitted. *)
  Alcotest.(check int) "fault_sites 0" 0 (assoc_or_fail "rpc" "fault_sites" rpc);
  let leases = kv_lines (read p "/proc/netfs/leases") in
  Alcotest.(check int) "epoch 0" 0 (assoc_or_fail "leases" "epoch" leases);
  Alcotest.(check int) "no grants" 0 (assoc_or_fail "leases" "grants" leases);
  Alcotest.(check int) "no clients" 0 (assoc_or_fail "leases" "clients" leases)

let test_batch_surface () =
  (* /proc/dcache/batch renders the §3.9 amortization figures from the
     kernel's own counters: submit, op and window totals plus the
     miss-deferral and sharded mkdir/rmdir counters.  Drive a known
     mixture and require exact agreement. *)
  let module Batch = Dcache_syscalls.Batch in
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "mkdir /proc" (S.mkdir_p p "/proc");
  get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
  (* A cached negative for the name keeps mkdir on the sharded path
     (the stripe promotes it in place; a cold name falls back to the
     legacy global-lock path). *)
  expect_err Errno.ENOENT "seed negative" (S.stat p "/bdir");
  get "mkdir" (S.mkdir p "/bdir");
  expect_err Errno.ENOENT "seed negative" (S.stat p "/bgone");
  get "rmdir victim" (S.mkdir p "/bgone");
  get "rmdir" (S.rmdir p "/bgone");
  for i = 0 to 7 do
    get "seed" (S.write_file p (Printf.sprintf "/bdir/f%d" i) "x")
  done;
  let ring = Batch.create ~cap:8 p in
  for i = 0 to 7 do
    ignore (Batch.push_stat ring (Printf.sprintf "/bdir/f%d" i))
  done;
  (* First submit: all 8 probes miss the DLHT and are deferred to the
     grouped slowpath; the next two run warm under one window each. *)
  Batch.submit ring;
  Batch.submit ring;
  Batch.submit ring;
  let body = kv_lines (read p "/proc/dcache/batch") in
  let field = assoc_or_fail "batch" in
  Alcotest.(check int) "submits" 3 (field "batch_submits" body);
  Alcotest.(check int) "ops" 24 (field "batch_ops" body);
  Alcotest.(check int) "deferred: the cold submit's 8 misses" 8
    (field "batch_deferred" body);
  Alcotest.(check bool) "windows cover at least one per submit" true
    (field "batch_windows" body >= 3);
  Alcotest.(check int) "sharded mkdir count" 2 (field "sharded_mkdir" body);
  Alcotest.(check int) "sharded rmdir count" 1 (field "sharded_rmdir" body)

let test_batch_surface_per_kernel () =
  (* Two kernels in one program: submits on kernel A must show in A's
     /proc/dcache/batch and nowhere in B's. *)
  let module Batch = Dcache_syscalls.Batch in
  let mount_proc (kernel, p) =
    get "mkdir /proc" (S.mkdir_p p "/proc");
    get "mount proc" (S.mount_fs p (Kernel_procfs.make kernel) "/proc");
    p
  in
  let pa = mount_proc (ram_kernel ~config:Config.optimized ()) in
  let pb = mount_proc (ram_kernel ~config:Config.optimized ()) in
  get "seed" (S.write_file pa "/f" "x");
  let ring = Batch.create ~cap:4 pa in
  for _ = 1 to 4 do
    ignore (Batch.push_stat ring "/f")
  done;
  Batch.submit ring;
  Batch.submit ring;
  let field who p name =
    assoc_or_fail ("batch " ^ who) name (kv_lines (read p "/proc/dcache/batch"))
  in
  Alcotest.(check int) "A counts its submits" 2 (field "A" pa "batch_submits");
  Alcotest.(check int) "A counts its ops" 8 (field "A" pa "batch_ops");
  Alcotest.(check bool) "A counts its windows" true (field "A" pa "batch_windows" >= 2);
  List.iter
    (fun name -> Alcotest.(check int) ("B shows no " ^ name) 0 (field "B" pb name))
    [ "batch_submits"; "batch_ops"; "batch_windows" ]

let test_causes_per_kernel () =
  (* Two kernels in one program, both procfs mounted in A's process so
     reading them walks only A.  Cold misses on A must leave B's
     /proc/dcache/causes at zero. *)
  let ka, pa = ram_kernel ~config:Config.optimized () in
  let kb, _ = ram_kernel ~config:Config.optimized () in
  get "mkdir /proc" (S.mkdir_p pa "/proc");
  get "mkdir /procb" (S.mkdir_p pa "/procb");
  get "mount proc" (S.mount_fs pa (Kernel_procfs.make ka) "/proc");
  get "mount procb" (S.mount_fs pa (Kernel_procfs.make kb) "/procb");
  Kernel.reset_stats kb;
  for i = 1 to 20 do
    expect_err Errno.ENOENT "cold miss" (S.stat pa (Printf.sprintf "/miss%d" i))
  done;
  let causes p path = kv_lines (read p path) in
  Alcotest.(check bool) "A counts its cold misses" true
    (assoc_or_fail "A causes" "cold" (causes pa "/proc/dcache/causes") >= 20);
  let b = causes pa "/procb/dcache/causes" in
  Alcotest.(check int) "B lists all six causes" 6 (List.length b);
  List.iter (fun (k, v) -> Alcotest.(check int) ("B " ^ k) 0 v) b;
  Kernel.reset_stats ka;
  Alcotest.(check int) "reset_stats zeroes A's causes" 0
    (List.assoc "cold" (Kernel.stats_snapshot ka))

let test_cold_only_on_fallback () =
  (* A warm absent name under a complete directory is answered by the
     prefix scan without falling back: it is not a cold miss.  Only a probe
     that really falls back counts as [cold]. *)
  let k, p = ram_kernel ~config:Config.optimized () in
  get "mkdir /proc" (S.mkdir_p p "/proc");
  get "mount proc" (S.mount_fs p (Kernel_procfs.make k) "/proc");
  get "mkdir /d" (S.mkdir_p p "/d/sub");
  expect_err Errno.ENOENT "warm-up" (S.stat p "/d/absent");
  Kernel.reset_stats k;
  for _ = 1 to 20 do
    expect_err Errno.ENOENT "absent under complete dir" (S.stat p "/d/absent")
  done;
  let stat name = List.assoc name (Kernel.stats_snapshot k) in
  Alcotest.(check int) "answered from the complete parent" 20 (stat "fastpath_prefix_negfail");
  Alcotest.(check int) "no fallback" 0 (stat "fastpath_fallback");
  Alcotest.(check int) "not cold" 0 (stat "cold");
  expect_err Errno.ENOENT "cold miss" (S.stat p "/fresh");
  Alcotest.(check int) "a fallback is cold" 1 (stat "cold");
  (* Reading the file is itself a lookup that falls back (procfs dentries
     are never published for direct lookup), so compare after it. *)
  let shown = assoc_or_fail "causes" "cold" (kv_lines (read p "/proc/dcache/causes")) in
  Alcotest.(check int) "/proc/dcache/causes shows it" (stat "cold") shown

let suite =
  [
    Alcotest.test_case "scripted workload: full /proc surface read-back" `Quick
      test_proc_observability_surface;
    Alcotest.test_case "prefix-resume counters and histogram via /proc" `Quick
      test_prefix_resume_surface;
    Alcotest.test_case "Trace.dump_chrome emits valid JSON" `Quick
      test_chrome_dump_is_valid_json;
    Alcotest.test_case "procfs without faults/netfs attachments" `Quick
      test_procfs_without_attachments;
    Alcotest.test_case "/proc lists exactly its pseudo-files" `Quick test_procfs_file_set;
    Alcotest.test_case "attached idle netfs renders zero figures" `Quick
      test_procfs_zero_traffic_netfs;
    Alcotest.test_case "stripe lock table via /proc" `Quick test_stripes_surface;
    Alcotest.test_case "per-stripe negative lists via /proc/dcache/neglists" `Quick
      test_neglists_surface;
    Alcotest.test_case "/proc/dcache/trace re-read returns the whole rendering" `Quick
      test_trace_reread_in_full;
    Alcotest.test_case "two kernels' histograms and resume depths stay apart" `Quick
      test_two_kernels_read_their_own;
    Alcotest.test_case "vectored-submission figures via /proc/dcache/batch" `Quick
      test_batch_surface;
    Alcotest.test_case "/proc/dcache/causes counts cold only on a fallback" `Quick
      test_cold_only_on_fallback;
    Alcotest.test_case "/proc/dcache/causes counts only its own kernel" `Quick
      test_causes_per_kernel;
    Alcotest.test_case "/proc/dcache/batch counts only its own kernel" `Quick
      test_batch_surface_per_kernel;
    Alcotest.test_case "PCC refill counter and gauges via /proc" `Quick test_pcc_surface;
  ]
