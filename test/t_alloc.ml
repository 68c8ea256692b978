(* Allocation-discipline and DLHT-churn tests: the warm fastpath must not
   touch the minor heap (the optimization is worthless if every lookup pays
   a GC tax), the in-place path hasher must agree with the pure
   [Path.split]-based one, and intrusive bucket churn must keep the table
   structurally exact. *)

open Dcache_types
open Kit
module Fastpath = Dcache_core.Fastpath
module Dlht = Dcache_core.Dlht
module Signature = Dcache_sig.Signature
module Path = Dcache_vfs.Path
module Proc = Dcache_syscalls.Proc
module Trace = Dcache_util.Trace
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters
module Rwlock = Dcache_util.Rwlock
module Dcache = Dcache_vfs.Dcache
module Pagecache = Dcache_storage.Pagecache

(* Top-level so the measured loop doesn't even pay for a closure. *)
let within_unit _mnt _dentry = Ok ()

(* [Gc.minor_words] itself allocates its boxed float result, and that box is
   charged to the *next* reading.  Calibrate by taking two back-to-back
   readings: their difference is exactly the allocation cost of one call,
   which we subtract from the measured window. *)
let measure_minor_words iters f =
  f ();
  f ();
  (* warm *)
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let self = b -. a in
  for _ = 1 to iters do
    f ()
  done;
  let c = Gc.minor_words () in
  c -. b -. self

let probe_ok fp ctx path =
  match Fastpath.lookup_into fp ctx path ~within:within_unit with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected %s on %s" (Errno.to_string e) path

let probe_enoent fp ctx path =
  match Fastpath.lookup_into fp ctx path ~within:within_unit with
  | Ok () -> Alcotest.failf "unexpected success on %s" path
  | Error Errno.ENOENT -> ()
  | Error e -> Alcotest.failf "unexpected %s on %s" (Errno.to_string e) path

let test_warm_hit_zero_alloc () =
  (* Tracing hooks are compiled into every probe site; this asserts the
     disarmed half of the overhead discipline — the stamps are present but
     must cost nothing. *)
  Alcotest.(check bool) "tracing ring disarmed" false !Trace.armed;
  let kernel, p = ram_kernel ~config:Config.optimized () in
  Alcotest.(check bool) "lookup timers disarmed" false
    (Kernel.timers kernel).Dcache_util.Timers.lookups;
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let hits_before () = counter kernel "fastpath_hit" in
  probe_ok fp ctx "/a/b/c/target";
  (* warmed: from here on every probe must be a DLHT hit *)
  let h0 = hits_before () in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words = measure_minor_words iters (fun () -> probe_ok fp ctx "/a/b/c/target") in
  let reads, writes = Rwlock.acquisition_counts () in
  Alcotest.(check int) "all probes were fastpath hits" (iters + 2) (hits_before () - h0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over 10k warm hits" 0.0 words;
  (* A warm hit must not re-probe under the lock, let alone walk. *)
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over 10k warm hits" (0, 0)
    (reads, writes)

(* A warm DLHT hit whose PCC entry is gone refills it by climbing to the
   vouched-for parent: no walk, no lock, no minor-heap word.  Each round
   bumps the target's version, which kills its entry as an ancestor's chmod
   would (the probe drops the stale entry), and leaves its parent's alone. *)
let test_refill_zero_alloc () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_ok fp ctx "/a/b/c/target";
  let target =
    match (Fastpath.lookup fp ctx "/a/b/c/target").Dcache_vfs.Walk.outcome with
    | Ok r -> r.Dcache_vfs.Types.dentry
    | Error e -> Alcotest.failf "lookup: %s" (Errno.to_string e)
  in
  let h0 = counter kernel "fastpath_hit" in
  let r0 = counter kernel "fastpath_pcc_refill" in
  let f0 = counter kernel "fastpath_fallback" in
  let iters = 10_000 in
  let dcache = Kernel.dcache kernel in
  Rwlock.reset_acquisition_counts ();
  let words =
    measure_minor_words iters (fun () ->
        Dcache.bump_seq dcache target;
        probe_ok fp ctx "/a/b/c/target")
  in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "every probe refilled" (iters + 2)
    (counter kernel "fastpath_pcc_refill" - r0);
  Alcotest.(check int) "every probe was a fastpath hit" (iters + 2)
    (counter kernel "fastpath_hit" - h0);
  Alcotest.(check int) "no fallback" 0 (counter kernel "fastpath_fallback" - f0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over 10k refills" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over 10k refills" (0, 0) locks

(* The baseline walk reads each component in place (§2.2's
   link_path_walk): a warm stat of eight components allocates exactly what
   a warm stat of one does, whatever that fixed cost is. *)
let test_baseline_walk_per_component () =
  let _, p = ram_kernel ~config:Config.baseline () in
  get "tree" (S.mkdir_p p "/a/b/c/d/e/f/g");
  get "deep file" (S.write_file p "/a/b/c/d/e/f/g/h" "x");
  get "shallow file" (S.write_file p "/h" "x");
  let words path =
    measure_minor_words 10_000 (fun () -> ignore (get "stat" (S.stat p path)))
  in
  let one = words "/h" in
  let eight = words "/a/b/c/d/e/f/g/h" in
  Alcotest.(check (float 0.0)) "minor words over 10k stats: 8 components = 1" one eight

(* A process spawned without a credential gets its kernel's root credential,
   so the PCC it fills dies with the kernel: a credential shared across
   kernels would keep every dead kernel's table alive (32 KB or more each). *)
let test_dropped_kernels_free_their_pcc () =
  let kernel_round () =
    let kernel, p = ram_kernel ~config:Config.optimized () in
    get "tree" (S.mkdir_p p "/a/b");
    ignore (get "stat" (S.stat p "/a/b"));
    ignore (Sys.opaque_identity kernel)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for _ = 1 to 5 do
    kernel_round ()
  done;
  let before = live_words () in
  for _ = 1 to 50 do
    kernel_round ()
  done;
  let grown = live_words () - before in
  (* One leaked table is 5,120 words; fifty would be a quarter million. *)
  if grown > 5_000 then
    Alcotest.failf "major heap grew by %d words over 50 dropped kernels" grown

(* Plan 9 lexical ".." cancels a component in place (§4.2): a warm hit
   through one costs no more than a plain hit. *)
let test_warm_lexical_dotdot_zero_alloc () =
  let config = { Config.optimized with Config.dotdot = Config.Dotdot_lexical } in
  let kernel, p = ram_kernel ~config () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let path = "/a/b/x/../c/y/z/../../target" in
  probe_ok fp ctx path;
  let h0 = counter kernel "fastpath_hit" in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words = measure_minor_words iters (fun () -> probe_ok fp ctx path) in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "all probes were fastpath hits" (iters + 2)
    (counter kernel "fastpath_hit" - h0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over 10k lexical hits" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over 10k lexical hits" (0, 0)
    locks

let test_warm_lease_hit_zero_alloc () =
  (* The lease gate sits on the lockless commit path (§3.7): a warm hit on
     a stateful network mount consults the client's lease table for the
     final inode and its parent directory.  That consult must cost nothing
     — no RPC, no lock, no minor-heap word — or the fastpath's case for
     trusting the cache collapses. *)
  let module Netfs = Dcache_fs.Netfs in
  let module Vclock = Dcache_util.Vclock in
  let clock = Vclock.create () in
  let backing = Dcache_fs.Ramfs.create () in
  let server = Netfs.server ~rpc_latency_ns:1000 ~clock backing in
  let kernel =
    Kernel.create ~config:Config.optimized
      ~root_fs:(Netfs.client ~protocol:Netfs.Stateful server)
      ()
  in
  let p = Proc.spawn kernel in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_ok fp ctx "/a/b/c/target";
  let h0 = counter kernel "fastpath_hit" in
  let iters = 10_000 in
  Netfs.reset_rpc_count server;
  Rwlock.reset_acquisition_counts ();
  let words = measure_minor_words iters (fun () -> probe_ok fp ctx "/a/b/c/target") in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "all probes were fastpath hits" (iters + 2)
    (counter kernel "fastpath_hit" - h0);
  Alcotest.(check int) "zero RPCs over 10k live-lease hits" 0 (Netfs.rpc_count server);
  Alcotest.(check (float 0.0)) "zero minor-heap words over 10k live-lease hits" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over 10k live-lease hits"
    (0, 0) locks

let test_warm_negative_hit_zero_alloc () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b");
  (* Completeness lost: only an incomplete /a/b caches the absence as a
     negative dentry; a complete one answers it by prefix fast-fail. *)
  Kernel.drop_caches kernel;
  ignore (S.stat p "/a/b/nothing");
  (* cache the negative *)
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_enoent fp ctx "/a/b/nothing";
  let neg0 = counter kernel "fastpath_negative_hit" in
  Rwlock.reset_acquisition_counts ();
  let words =
    measure_minor_words 10_000 (fun () -> probe_enoent fp ctx "/a/b/nothing")
  in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check bool) "served from the negative cache" true
    (counter kernel "fastpath_negative_hit" > neg0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over warm negative hits" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over warm negative hits" (0, 0)
    locks

(* --- armed-tracing allocation discipline ---

   The ring is one preallocated int array and the timestamp is the stamp's
   own sequence number, so even an *armed* stamp must not touch the minor
   heap — and a warm fastpath hit with the ring armed must stay at zero
   words too.  (The kernel's timers, which read the clock, are exercised by
   the bench, not here.) *)

let test_armed_ring_stamp_zero_alloc () =
  Trace.reset ();
  Trace.armed := true;
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let iters = 10_000 in
      let words =
        measure_minor_words iters (fun () -> Trace.stamp Trace.ev_fast_hit 7)
      in
      Alcotest.(check bool) "stamps landed in the ring" true
        (Trace.recorded () >= iters);
      Alcotest.(check (float 0.0)) "armed ring stamp allocates zero words" 0.0 words)

(* A counter bump by id is one fetch-and-add on the caller's slot of its
   kernel's table: no lookup, no option, nothing on the minor heap. *)
let test_counter_bump_zero_alloc () =
  let kernel, _ = ram_kernel ~config:Config.optimized () in
  let counters = Kernel.counters kernel in
  let iters = 10_000 in
  let bump () = Counter.bump counters Counters.fastpath_hit in
  let add () = Counter.add counters Counters.path_bytes 3 in
  Alcotest.(check (float 0.0)) "Counter.bump allocates zero words" 0.0
    (measure_minor_words iters bump);
  Alcotest.(check (float 0.0)) "Counter.add allocates zero words" 0.0
    (measure_minor_words iters add);
  Alcotest.(check int) "every bump counted" (iters + 2)
    (Counter.get counters Counters.fastpath_hit);
  Alcotest.(check int) "every add counted" (3 * (iters + 2))
    (Counter.get counters Counters.path_bytes)

let page_noop _ = ()

(* A page-cache hit probes the table without an option and sets the page's
   mark; nothing moves, nothing is allocated. *)
let test_pagecache_hit_zero_alloc () =
  Alcotest.(check bool) "page checksums off" false !Dcache_util.Fault.checks_enabled;
  let dev = Dcache_storage.Blockdev.create (Dcache_util.Vclock.create ()) in
  let cache = Pagecache.create ~capacity_pages:4 dev in
  List.iter (fun n -> Pagecache.with_page cache n page_noop) [ 0; 1; 2 ];
  let iters = 10_000 in
  let hit () = Pagecache.with_page cache 1 page_noop in
  Alcotest.(check (float 0.0)) "page-cache hit allocates zero words" 0.0
    (measure_minor_words iters hit);
  Alcotest.(check int) "every probe a hit" (iters + 2) (Pagecache.hits cache)

(* --- Extfs per-call words ---

   A getattr decodes the attribute fields only; a rename and a create read
   their directory once.  The bounds are the words each call took before
   that (decoding the whole dinode, four dirent scans per rename, two per
   create): 52, 678 and 377. *)
let test_extfs_call_words () =
  let module Fs = Dcache_fs.Fs_intf in
  let dev = Dcache_storage.Blockdev.create (Dcache_util.Vclock.create ()) in
  let fs = Dcache_fs.Extfs.mkfs_and_mount (Pagecache.create ~capacity_pages:16384 dev) in
  let mkdir name =
    (get "mkdir" (fs.Fs.create fs.Fs.root_ino name File_kind.Directory 0o755 ~uid:0 ~gid:0))
      .Attr.ino
  in
  let create dir name =
    ignore (get "create" (fs.Fs.create dir name File_kind.Regular 0o644 ~uid:0 ~gid:0))
  in
  (* A 400-message maildir cur/, then one of its messages' flag toggled. *)
  let cur = mkdir "cur" in
  let mail i = Printf.sprintf "%d.%06d.host:2," (1_000_000 + i) (i * 7919 mod 1_000_000) in
  for i = 0 to 399 do
    create cur (mail i)
  done;
  let plain = mail 200 and seen = mail 200 ^ "S" in
  let flagged = ref false in
  let toggle () =
    let a, b = if !flagged then (seen, plain) else (plain, seen) in
    get "rename" (fs.Fs.rename cur a cur b);
    flagged := not !flagged
  in
  let rename_words = measure_minor_words 1000 toggle in
  let getattr_words =
    measure_minor_words 1000 (fun () -> ignore (get "getattr" (fs.Fs.getattr cur)))
  in
  (* 400 creates into a growing directory, averaged. *)
  let inbox = mkdir "inbox" in
  let names = Array.init 400 mail in
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  Array.iter (create inbox) names;
  let create_words = (Gc.minor_words () -. b -. (b -. a)) /. 400.0 in
  Printf.printf "extfs words/call: getattr %.1f, rename %.1f, create %.1f\n"
    (getattr_words /. 1000.0) (rename_words /. 1000.0) create_words;
  let below what bound words =
    if words >= bound then Alcotest.failf "%s takes %.1f words, bound %.0f" what words bound
  in
  below "getattr" 52.0 (getattr_words /. 1000.0);
  below "rename in a 400-entry directory" 678.0 (rename_words /. 1000.0);
  below "create into a growing directory" 377.0 create_words

let test_warm_hit_armed_ring_zero_alloc () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_ok fp ctx "/a/b/c/target";
  Trace.reset ();
  Trace.armed := true;
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let iters = 10_000 in
      Rwlock.reset_acquisition_counts ();
      let words =
        measure_minor_words iters (fun () -> probe_ok fp ctx "/a/b/c/target")
      in
      let locks = Rwlock.acquisition_counts () in
      Alcotest.(check bool) "hits were stamped" true (Trace.recorded () >= iters);
      Alcotest.(check (float 0.0)) "warm hit with armed ring allocates zero words" 0.0
        words;
      Alcotest.(check (pair int int)) "zero rwlock acquisitions with armed ring" (0, 0)
        locks)

(* --- §3.8 span allocation discipline ---

   Span minting is an increment off a per-domain block (the block refill
   is one Atomic.fetch_and_add, still no allocation): disarmed it is one
   load-and-branch, armed it stays off the minor heap. *)

let test_span_minting_zero_alloc () =
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let iters = 10_000 in
      let mint () = ignore (Trace.span_enter ()) in
      let words = measure_minor_words iters mint in
      Alcotest.(check (float 0.0)) "disarmed span minting allocates zero words" 0.0 words;
      Trace.armed := true;
      let words = measure_minor_words iters mint in
      Alcotest.(check bool) "spans were minted" true (Trace.current_span () <> 0);
      Alcotest.(check (float 0.0)) "armed span minting allocates zero words" 0.0 words)

(* --- prefix-resume snapshot discipline (§3.5) --- *)

let test_snapshot_recording_zero_alloc () =
  (* The recording hasher is the warm path now — every probe feeds through
     it — so boundary snapshots must cost six int stores per component and
     nothing on the minor heap, including re-finalizing a snapshot into a
     preallocated buf (the miss scan's probe step). *)
  let key = Signature.create_key ~seed:5 () in
  let ms = Signature.mstate () in
  let sn = Signature.snaps ~slots:64 in
  let b = Signature.buf () in
  let path = "/usr/share/doc/package/readme" in
  let words =
    measure_minor_words 10_000 (fun () ->
        Signature.mstate_reset ms;
        Signature.snaps_reset sn;
        let rc = Signature.hash_path_into_rec key ms sn ~max_name:Path.max_name path ~pos:0 in
        if rc <> Signature.scan_done then Alcotest.fail "scan did not complete";
        Signature.finalize_into key ms b;
        Signature.finalize_snap_into key sn 1 b)
  in
  Alcotest.(check int) "one snapshot per boundary" 5 (Signature.snaps_count sn);
  Alcotest.(check bool) "no overflow" false (Signature.snaps_overflowed sn);
  Alcotest.(check (float 0.0)) "snapshot recording allocates zero words" 0.0 words

let test_prefix_resume_scratch_reuse () =
  (* A prefix-resumed miss allocates real work — the suffix string, the
     visited chain, the new dentry — but must NOT allocate snapshot state:
     the per-domain scratch arrays are reused.  A fresh [snaps] for
     max_path would be ~12k words per lookup; assert each resumed miss
     stays far below that. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  let deep = "/d0/d1/d2/d3/d4/d5/d6/d7/d8/d9/d10/d11/d12/d13/d14/d15" in
  get "chain" (S.mkdir_p p deep);
  let iters = 1_000 in
  let leaf i = Printf.sprintf "%s/f%d" deep i in
  for i = 0 to iters + 2 do
    get "leaf" (S.write_file p (leaf i) "x")
  done;
  (* Everything is warm from creation: purge, then re-warm only the
     ancestor chain, so each leaf stat below is a cold DLHT miss with all
     sixteen ancestors cached — the resumed-slowpath case. *)
  Kernel.drop_caches kernel;
  ignore (get "re-warm chain" (S.stat p deep));
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let resumes0 = counter kernel "fastpath_prefix_resume" in
  let i = ref 0 in
  let words =
    measure_minor_words iters (fun () ->
        probe_ok fp ctx (leaf !i);
        incr i)
  in
  let resumes = counter kernel "fastpath_prefix_resume" - resumes0 in
  Alcotest.(check bool)
    (Printf.sprintf "misses were prefix-resumed (%d)" resumes)
    true
    (resumes >= iters);
  let per_op = words /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "resumed miss reuses snapshot scratch (%.0f words/op)" per_op)
    true (per_op < 3000.0)

let test_prefix_negfail_zero_alloc () =
  (* A DIR_COMPLETE fast-fail populates no negative dentry (a complete
     directory is its own negative cache), so a repeatedly probed absent
     name takes the verdict path on *every* lookup — it must obey the same zero-allocation
     discipline as a warm hit (top-level scan recursion, constant verdict
     exception, in-place substring child probe). *)
  let config = { Config.optimized with Config.deep_negative = false } in
  let kernel, p = ram_kernel ~config () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  ignore (get "readdir" (S.readdir_path p "/a/b/c"));
  (* dir now DIR_COMPLETE *)
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_enoent fp ctx "/a/b/c/ghost";
  let n0 = counter kernel "fastpath_prefix_negfail" in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words =
    measure_minor_words iters (fun () -> probe_enoent fp ctx "/a/b/c/ghost")
  in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "every probe was a prefix fast-fail" (iters + 2)
    (counter kernel "fastpath_prefix_negfail" - n0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over prefix fast-fails" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over prefix fast-fails" (0, 0)
    locks

let test_deep_negative_zero_alloc () =
  (* Under an incomplete directory the first miss of a deep absent path
     caches the absent name and a deep negative below it (§5.2), so every
     later probe is a warm negative hit — zero words, zero locks, and no
     prefix scan at all. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload");
  (* Completeness lost: /a/b/c is re-walked, not DIR_COMPLETE. *)
  Kernel.drop_caches kernel;
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  probe_enoent fp ctx "/a/b/c/ghost/deep";
  Alcotest.(check bool) "first miss built a deep negative" true
    (counter kernel "deep_negative_created" >= 1);
  probe_enoent fp ctx "/a/b/c/ghost/deep";
  let neg0 = counter kernel "fastpath_negative_hit" in
  let negfail0 = counter kernel "fastpath_prefix_negfail" in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words =
    measure_minor_words iters (fun () -> probe_enoent fp ctx "/a/b/c/ghost/deep")
  in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "every probe was a warm negative hit" (iters + 2)
    (counter kernel "fastpath_negative_hit" - neg0);
  Alcotest.(check int) "no prefix fast-fails" 0
    (counter kernel "fastpath_prefix_negfail" - negfail0);
  Alcotest.(check (float 0.0)) "zero minor-heap words over deep negative hits" 0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over deep negative hits"
    (0, 0) locks

(* A complete directory is its own negative cache (§5.1): after an unlink
   or a rename in one, the old name is dropped, not kept as a negative.  A
   stat of it is the prefix fast-fail — no fs lookup, no negative created,
   no lock — and a probe of it allocates nothing. *)
let check_old_name_fast_fails mutate =
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn kernel in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/old" "payload");
  ignore (get "readdir" (S.readdir_path p "/a/b/c"));
  ignore (get "warm" (S.stat p "/a/b/c/old"));
  mutate p;
  Alcotest.(check (list string)) "no negative under the complete parent" []
    (Dcache.self_check (Kernel.dcache kernel));
  let lookups0 = fs_calls "lookup" in
  let neg0 = counter kernel "negative_created" in
  let negfail0 = counter kernel "fastpath_prefix_negfail" in
  Rwlock.reset_acquisition_counts ();
  expect_err Errno.ENOENT "old name" (S.stat p "/a/b/c/old");
  Alcotest.(check (pair int int)) "stat took no rwlock" (0, 0) (Rwlock.acquisition_counts ());
  Alcotest.(check int) "stat was a prefix fast-fail" 1
    (counter kernel "fastpath_prefix_negfail" - negfail0);
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words = measure_minor_words iters (fun () -> probe_enoent fp ctx "/a/b/c/old") in
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over fast-fails" (0, 0)
    (Rwlock.acquisition_counts ());
  Alcotest.(check (float 0.0)) "zero minor-heap words over fast-fails" 0.0 words;
  Alcotest.(check int) "every probe was a prefix fast-fail" (iters + 3)
    (counter kernel "fastpath_prefix_negfail" - negfail0);
  Alcotest.(check int) "no fs lookup" 0 (fs_calls "lookup" - lookups0);
  Alcotest.(check int) "no negative created" 0 (counter kernel "negative_created" - neg0)

let test_unlink_in_complete_dir () =
  check_old_name_fast_fails (fun p -> get "unlink" (S.unlink p "/a/b/c/old"))

let test_rename_in_complete_dir () =
  check_old_name_fast_fails (fun p -> get "rename" (S.rename p "/a/b/c/old" "/a/b/c/new"))

(* --- in-place hasher vs. the pure split-based hasher --- *)

let reference_signature key comps =
  let state =
    List.fold_left
      (fun st comp ->
        match comp with
        | Path.Cur | Path.Up -> st
        | Path.Name name -> Signature.feed_string key (Signature.feed_char key st '/') name)
      Signature.empty_state comps
  in
  Signature.finalize key state

(* The probe's scanner; these cases ignore the boundary snapshots. *)
let scan key ms ~max_name path ~pos =
  Signature.hash_path_into_rec key ms (Signature.snaps ~slots:64) ~max_name path ~pos

let inplace_signature key ~max_name path =
  let ms = Signature.mstate () in
  let b = Signature.buf () in
  let rc = scan key ms ~max_name path ~pos:0 in
  Alcotest.(check int) (Printf.sprintf "scan of %S completes" path) Signature.scan_done rc;
  Signature.finalize_into key ms b;
  Signature.of_buf b

let check_equivalent key path =
  match Path.split path with
  | Error e -> Alcotest.failf "reference split of %S failed: %s" path (Errno.to_string e)
  | Ok comps ->
    let reference = reference_signature key comps in
    let inplace = inplace_signature key ~max_name:Path.max_name path in
    Alcotest.(check int)
      (Printf.sprintf "in-place hash of %S matches split+feed_string" path)
      0
      (Signature.compare_full reference inplace)

let test_inplace_hasher_equivalence () =
  let key = Signature.create_key ~seed:42 () in
  List.iter (check_equivalent key)
    [
      "/";
      "/a";
      "a";
      "/a/b/c";
      "a/b/c";
      "//a//b//c";
      "/a/b/c/";
      "a/b/";
      ".";
      "/.";
      "./a/./b/.";
      "/a/./b";
      "a//b///c////d";
      "/...";
      (* "..." is a regular name, not a dot-dot *)
      "/..a/b..";
      "/" ^ String.make 255 'n';
      (* longest legal component *)
    ]

let test_inplace_hasher_resume_mid_path () =
  (* Resuming from a non-empty state (the cwd case) must agree with feeding
     the whole canonical path at once. *)
  let key = Signature.create_key ~seed:43 () in
  let whole = inplace_signature key ~max_name:Path.max_name "/home/user/project/file" in
  let prefix_state =
    List.fold_left
      (fun st name -> Signature.feed_string key (Signature.feed_char key st '/') name)
      Signature.empty_state [ "home"; "user" ]
  in
  let ms = Signature.mstate () in
  let b = Signature.buf () in
  Signature.mstate_resume ms prefix_state;
  let rc = scan key ms ~max_name:Path.max_name "project/file" ~pos:0 in
  Alcotest.(check int) "resumed scan completes" Signature.scan_done rc;
  Signature.finalize_into key ms b;
  Alcotest.(check int) "resumed hash agrees" 0
    (Signature.compare_full whole (Signature.of_buf b))

let test_inplace_hasher_dotdot_cursor () =
  let key = Signature.create_key ~seed:7 () in
  let ms = Signature.mstate () in
  let b = Signature.buf () in
  let path = "a/../b" in
  let rc = scan key ms ~max_name:Path.max_name path ~pos:0 in
  Alcotest.(check int) "stops just past the dot-dot" 4 rc;
  Signature.finalize_into key ms b;
  Alcotest.(check int) "prefix state covers only \"a\"" 0
    (Signature.compare_full
       (reference_signature key [ Path.Name "a" ])
       (Signature.of_buf b));
  (* The caller re-seeds the state (here: from scratch, as if the walk
     stepped up to the root) and resumes at the returned cursor. *)
  Signature.mstate_reset ms;
  let rc2 = scan key ms ~max_name:Path.max_name path ~pos:rc in
  Alcotest.(check int) "rest of the path completes" Signature.scan_done rc2;
  Signature.finalize_into key ms b;
  Alcotest.(check int) "suffix hash is \"/b\"" 0
    (Signature.compare_full
       (reference_signature key [ Path.Name "b" ])
       (Signature.of_buf b))

let test_inplace_hasher_grow () =
  (* A fresh key starts with 512 positions of key material; a long component
     must grow it mid-feed and still agree with the pure hasher (which grows
     through the same tables). *)
  let key = Signature.create_key ~seed:9 () in
  let long = String.make 600 'x' in
  let path = "/" ^ long ^ "/" ^ String.make 700 'y' in
  let reference =
    reference_signature key [ Path.Name long; Path.Name (String.make 700 'y') ]
  in
  let inplace = inplace_signature key ~max_name:4096 path in
  Alcotest.(check int) "growth preserves equivalence" 0
    (Signature.compare_full reference inplace)

let test_inplace_hasher_toolong () =
  let key = Signature.create_key ~seed:11 () in
  let ms = Signature.mstate () in
  let path = "/ok/" ^ String.make (Path.max_name + 1) 'z' in
  let rc = scan key ms ~max_name:Path.max_name path ~pos:0 in
  Alcotest.(check int) "component over max_name is rejected" Signature.scan_toolong rc;
  (* parity with the list-based validation *)
  (match Path.split path with
  | Error Errno.ENAMETOOLONG -> ()
  | Error e -> Alcotest.failf "split: unexpected %s" (Errno.to_string e)
  | Ok _ -> Alcotest.fail "split accepted an over-long component")

(* The scanner against the reference on generated paths: random bytes
   (['/'] and ['.'] among them), ["."], [".."], ["..."], empty components
   (doubled, leading and trailing slashes), names of 100-255 bytes that
   push a fresh key past its 512 initial positions mid-scan, and 256-byte
   names it must reject.  Driven like a caller that ignores [".."]: resume
   at the returned cursor and keep the state, so every snapshot is the
   reference hash of the path prefix its cursor ends. *)
let gen_scan_path =
  let open QCheck.Gen in
  let byte = map Char.chr (int_range 1 255) in
  let letter = map Char.chr (int_range 97 122) in
  let comp =
    frequency
      [
        (8, string_size ~gen:byte (int_range 1 12));
        (2, return ".");
        (2, return "..");
        (2, return "");
        (1, oneofl [ "..."; ".a"; "a." ]);
        (3, map2 String.make (int_range 100 255) letter);
        (1, map2 String.make (return 256) letter);
      ]
  in
  map3
    (fun lead comps trail ->
      let path = (if lead then "/" else "") ^ String.concat "/" comps ^ if trail then "/" else "" in
      if String.length path > Path.max_path then String.sub path 0 Path.max_path else path)
    bool (list_size (int_range 1 24) comp) bool

let reference_comps path =
  if path = "" then []
  else
  match Path.split path with
  | Ok comps -> comps
  | Error e -> QCheck.Test.fail_reportf "split of a prefix failed: %s" (Errno.to_string e)

let fused_scanner_property =
  QCheck.Test.make ~name:"fused scanner == Path.split + feed_char + feed_string" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") gen_scan_path)
    (fun path ->
      let key = Signature.create_key ~seed:17 () in
      let ms = Signature.mstate () and b = Signature.buf () in
      let sn = Signature.snaps ~slots:((Path.max_path / 2) + 2) in
      let len = String.length path in
      let rec drive pos dotdots =
        let rc = Signature.hash_path_into_rec key ms sn ~max_name:Path.max_name path ~pos in
        if rc >= 0 then drive rc (rc :: dotdots) else (rc, List.rev dotdots)
      in
      let rc, dotdots = drive 0 [] in
      (* The non-empty components up to the first over-long one, which
         ends the scan. *)
      let rec scanned acc = function
        | [] -> List.rev acc
        | c :: rest ->
          if String.length c > Path.max_name then List.rev (c :: acc) else scanned (c :: acc) rest
      in
      let parts = scanned [] (List.filter (fun c -> c <> "") (String.split_on_char '/' path)) in
      let toolong = List.exists (fun c -> String.length c > Path.max_name) parts in
      let ends_at c name =
        c >= String.length name
        && String.sub path (c - String.length name) (String.length name) = name
        && (c = len || path.[c] = '/')
        && (c = String.length name || path.[c - String.length name - 1] = '/')
      in
      if rc <> if toolong then Signature.scan_toolong else Signature.scan_done then
        QCheck.Test.fail_reportf "scan returned %d" rc;
      if Signature.snaps_components sn <> List.length parts then
        QCheck.Test.fail_reportf "%d components counted, %d expected"
          (Signature.snaps_components sn) (List.length parts);
      if
        List.length dotdots <> List.length (List.filter (fun c -> c = "..") parts)
        || not (List.for_all (fun c -> ends_at c "..") dotdots)
      then QCheck.Test.fail_reportf "dot-dot cursors %s" (String.concat "," (List.map string_of_int dotdots));
      let names = List.filter (fun c -> c <> "." && c <> ".." && String.length c <= Path.max_name) parts in
      if Signature.snaps_count sn <> List.length names then
        QCheck.Test.fail_reportf "%d snapshots, %d names" (Signature.snaps_count sn) (List.length names);
      List.iteri
        (fun i name ->
          let c = Signature.snaps_cursor sn i in
          if not (ends_at c name) then QCheck.Test.fail_reportf "snapshot %d cursor %d" i c;
          Signature.finalize_snap_into key sn i b;
          let expect = reference_signature key (reference_comps (String.sub path 0 c)) in
          if Signature.compare_full expect (Signature.of_buf b) <> 0 then
            QCheck.Test.fail_reportf "snapshot %d differs from the reference" i)
        names;
      (if toolong then begin
         match Path.split path with
         | Error Errno.ENAMETOOLONG -> ()
         | _ -> QCheck.Test.fail_reportf "split accepted an over-long component"
       end
       else begin
         Signature.finalize_into key ms b;
         let expect = reference_signature key (reference_comps path) in
         if Signature.compare_full expect (Signature.of_buf b) <> 0 then
           QCheck.Test.fail_reportf "full-path hash differs from the reference"
       end);
      true)

(* --- intrusive DLHT churn --- *)

let dlht_of kernel (p : Proc.t) =
  let cfg = Kernel.config kernel in
  Dlht.of_namespace ~buckets:cfg.Config.dlht_buckets ~counters:(Kernel.counters kernel)
    p.Proc.ns

let check_healthy what dlht =
  Alcotest.(check (list string)) (what ^ ": self_check clean") [] (Dlht.self_check dlht);
  let occ = Dlht.occupancy dlht in
  Alcotest.(check int)
    (what ^ ": occupancy agrees with population")
    (Dlht.population dlht) occ.Dlht.occ_entries

let test_dlht_churn () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "dir" (S.mkdir_p p "/dir");
  let name i = Printf.sprintf "/dir/f%d" i in
  let renamed i = Printf.sprintf "/dir/g%d" i in
  for i = 1 to 50 do
    get "create" (S.write_file p (name i) "x")
  done;
  (* Completeness lost: /dir is re-walked, not DIR_COMPLETE, so unlinked
     and renamed-away names stay cached as negatives. *)
  Kernel.drop_caches kernel;
  for i = 1 to 50 do
    ignore (get "warm" (S.stat p (name i)))
  done;
  let dlht = dlht_of kernel p in
  Alcotest.(check bool) "warm walk populated the table" true (Dlht.population dlht >= 50);
  check_healthy "after warm" dlht;
  (* Unlink half: aggressive negative caching (§5.2) flips each dentry to a
     negative entry in place — the DLHT entry survives, population must not
     drift, and the ENOENT re-stats are served by the fastpath. *)
  let pop_before = Dlht.population dlht in
  for i = 1 to 25 do
    get "unlink" (S.unlink p (name i))
  done;
  check_healthy "after unlink churn" dlht;
  Alcotest.(check int) "unlink keeps negative entries resident" pop_before
    (Dlht.population dlht);
  let neg_before = counter kernel "fastpath_negative_hit" in
  for i = 1 to 25 do
    expect_err Errno.ENOENT "unlinked name misses" (S.stat p (name i))
  done;
  Alcotest.(check int) "ENOENT re-stats are fastpath negative hits"
    (neg_before + 25)
    (counter kernel "fastpath_negative_hit");
  for i = 1 to 25 do
    get "recreate" (S.write_file p (name i) "y")
  done;
  for i = 1 to 50 do
    ignore (get "re-warm" (S.stat p (name i)))
  done;
  check_healthy "after recreate" dlht;
  (* Rename churn: every rename shoots down the old path's entry. *)
  for i = 1 to 50 do
    get "rename" (S.rename p (name i) (renamed i))
  done;
  for i = 1 to 50 do
    ignore (get "warm renamed" (S.stat p (renamed i)))
  done;
  for i = 1 to 50 do
    expect_err Errno.ENOENT "old name gone" (S.stat p (name i))
  done;
  check_healthy "after rename churn" dlht;
  Kernel.drop_caches kernel;
  check_healthy "after drop_caches" dlht

let test_dlht_mount_alias_churn () =
  (* Re-signaturing under a different mount alias removes and re-inserts the
     dentry with a different signature; the chain splices must stay exact
     while two aliases fight over the same dentries. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b");
  get "file" (S.write_file p "/a/b/t" "x");
  get "bp1" (S.mkdir_p p "/m1");
  get "bp2" (S.mkdir_p p "/m2");
  get "bind1" (S.bind_mount p ~src:"/a/b" ~dst:"/m1");
  get "bind2" (S.bind_mount p ~src:"/a/b" ~dst:"/m2");
  let dlht = dlht_of kernel p in
  for _ = 1 to 5 do
    ignore (get "via m1" (S.stat p "/m1/t"));
    ignore (get "via m2" (S.stat p "/m2/t"));
    ignore (get "direct" (S.stat p "/a/b/t"))
  done;
  Alcotest.(check bool) "aliases forced re-signatures" true
    (counter kernel "mount_alias_resignature" > 0);
  check_healthy "after alias ping-pong" dlht

let test_dlht_bucket_validation () =
  (* Baseline kernels never create a DLHT, so the namespace is free for a
     direct module-level check. *)
  let kernel, p = ram_kernel ~config:Config.baseline () in
  let counters = Kernel.counters kernel in
  Alcotest.check_raises "non-power-of-two rejected"
    (Invalid_argument "Dlht.of_namespace: bucket count must be a positive power of two")
    (fun () -> ignore (Dlht.of_namespace ~buckets:1000 ~counters p.Proc.ns));
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Dlht.of_namespace: bucket count must be a positive power of two")
    (fun () -> ignore (Dlht.of_namespace ~buckets:0 ~counters p.Proc.ns));
  let dlht = Dlht.of_namespace ~buckets:64 ~counters p.Proc.ns in
  Alcotest.(check int) "fresh table is empty" 0 (Dlht.population dlht);
  let occ = Dlht.occupancy dlht in
  Alcotest.(check int) "64 buckets" 64 occ.Dlht.occ_buckets

(* --- resize --- *)

let test_dlht_resize_keeps_entries () =
  (* Start tiny so the doublings are forced by an ordinary workload.  Right
     after each doubling, every entry published so far must still answer
     from the fastpath: the rehash loses nothing. *)
  let config = { Config.optimized with Config.dlht_buckets = 16 } in
  let kernel, p = ram_kernel ~config () in
  get "dir" (S.mkdir_p p "/dir");
  let n = 300 in
  let name i = Printf.sprintf "/dir/f%d" i in
  for i = 1 to n do
    get "create" (S.write_file p (name i) "x")
  done;
  ignore (get "first" (S.stat p (name 1)));
  let dlht = dlht_of kernel p in
  let doublings = ref 0 in
  for i = 2 to n do
    let before = Dlht.resizes dlht in
    ignore (get "warm" (S.stat p (name i)));
    if Dlht.resizes dlht > before then begin
      incr doublings;
      check_healthy (Printf.sprintf "after doubling at f%d" i) dlht;
      let h0 = counter kernel "fastpath_hit" in
      for j = 1 to i do
        ignore (get "re-stat" (S.stat p (name j)))
      done;
      Alcotest.(check int)
        (Printf.sprintf "every re-stat hits right after the doubling at f%d" i)
        i
        (counter kernel "fastpath_hit" - h0)
    end
  done;
  Alcotest.(check bool) "the table doubled more than once" true (!doublings > 1);
  Alcotest.(check int) "every doubling was seen" (Dlht.resizes dlht) !doublings;
  let occ = Dlht.occupancy dlht in
  Alcotest.(check bool) "bucket array doubled away from 16" true (occ.Dlht.occ_buckets > 16);
  Alcotest.(check bool) "population within the load factor" true
    (Dlht.population dlht <= Dlht.grow_load * occ.Dlht.occ_buckets);
  (* The load factor bounds only the mean chain; the hash must also spread
     the entries, so the longest chain stays short across the doublings. *)
  Alcotest.(check bool) "chains stay bounded" true (occ.Dlht.occ_longest <= 16);
  check_healthy "after the last doubling" dlht;
  (* Entries published after the last doubling answer from the fastpath
     too. *)
  let h0 = counter kernel "fastpath_hit" in
  for i = 1 to n do
    ignore (get "final re-stat" (S.stat p (name i)))
  done;
  Alcotest.(check int) "every re-stat hits after the last doubling" n
    (counter kernel "fastpath_hit" - h0)

let test_dlht_sigless_scan_recovery () =
  (* Break the remove invariant on purpose — a chained dentry whose
     signature was cleared out from under the table — and check the
     defensive whole-table scan repairs the bucket and is counted. *)
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b");
  get "file" (S.write_file p "/a/b/t" "x");
  ignore (get "warm" (S.stat p "/a/b/t"));
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let d =
    match Fastpath.lookup_into fp ctx "/a/b/t" ~within:(fun _mnt d -> Ok d) with
    | Ok d -> d
    | Error e -> Alcotest.failf "lookup: %s" (Errno.to_string e)
  in
  let dlht = dlht_of kernel p in
  Alcotest.(check bool) "dentry is chained" true
    (d.Dcache_vfs.Types.d_dlht_ns <> None);
  let pop = Dlht.population dlht in
  Alcotest.(check int) "no scans yet" 0 (Dlht.sigless_scans dlht);
  Dcache.with_write (Kernel.dcache kernel) (fun () ->
      d.Dcache_vfs.Types.d_sig <- None;
      Dlht.remove d);
  Alcotest.(check int) "degraded removal was counted" 1 (Dlht.sigless_scans dlht);
  Alcotest.(check int) "entry left the table" (pop - 1) (Dlht.population dlht);
  check_healthy "after sigless removal" dlht;
  (* The next walk re-signatures and republishes; the table heals. *)
  ignore (get "re-stat" (S.stat p "/a/b/t"));
  Alcotest.(check int) "republished" pop (Dlht.population dlht);
  check_healthy "after republication" dlht

let test_warm_batch_zero_alloc () =
  (* The vectored front-end's whole pitch (§3.9) is amortization on top of
     the warm fastpath, so it inherits the same discipline: a warm all-hit
     submit — one shared validation window over N probes — must allocate
     zero minor-heap words and take zero rwlocks, per submit, not just
     per op. *)
  let module Batch = Dcache_syscalls.Batch in
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/a/b/c");
  let n = 32 in
  let paths =
    Array.init n (fun i -> Printf.sprintf "/a/b/c/t%02d" i)
  in
  Array.iter (fun path -> get "file" (S.write_file p path "payload")) paths;
  let ring = Batch.create ~cap:n p in
  Array.iteri (fun i path -> Alcotest.(check int) "slot" i (Batch.push_stat ring path)) paths;
  (* One cold submit warms every dentry into the DLHT; the SQ persists
     across submits (only [reset] clears it), so the measured loop re-runs
     the identical batch. *)
  Batch.submit ring;
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "slot %d ok" i) true (Batch.ok ring i)
  done;
  let submits0 = counter kernel "batch_submit" in
  let h0 = counter kernel "fastpath_hit" in
  let iters = 1_000 in
  Rwlock.reset_acquisition_counts ();
  let words = measure_minor_words iters (fun () -> Batch.submit ring) in
  let reads, writes = Rwlock.acquisition_counts () in
  Alcotest.(check int) "every submit ran" (iters + 2)
    (counter kernel "batch_submit" - submits0);
  Alcotest.(check int) "every probe was a fastpath hit"
    ((iters + 2) * n)
    (counter kernel "fastpath_hit" - h0);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "zero minor-heap words over %d warm %d-op submits" iters n)
    0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions across all submits" (0, 0)
    (reads, writes);
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "slot %d still ok" i) true (Batch.ok ring i)
  done

(* --- §5.1 cache-fed readdir allocation discipline ---

   The whole-listing scratch fill is the dirent analogue of the warm hit:
   after the first (cold, promoting, scratch-growing) call, every repeat
   on an unchanged DIR_COMPLETE directory must be a lockless seqcount-
   validated walk — zero minor-heap words, zero rwlock acquisitions, no
   stripe mutexes (asserted via the rwlock counts: the stripe sections all
   nest inside the read lock, so zero reads implies zero stripes). *)

let n_listing = 64

let test_warm_readdir_fill_zero_alloc () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "dir" (S.mkdir_p p "/ls");
  for i = 0 to n_listing - 1 do
    get "seed" (S.write_file p (Printf.sprintf "/ls/f%02d" i) "x")
  done;
  let fd = get "open" (S.openf p "/ls" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
  (* Cold fill: promotes the backend listing, marks DIR_COMPLETE, grows
     the scratch.  Everything after must be warm. *)
  let n = S.readdir_fill p fd in
  Alcotest.(check int) "cold fill sees every entry" n_listing n;
  let warm0 = counter kernel "readdir_scratch_warm" in
  let iters = 10_000 in
  Rwlock.reset_acquisition_counts ();
  let words =
    measure_minor_words iters (fun () ->
        if S.readdir_fill p fd <> n_listing then Alcotest.fail "short warm listing")
  in
  let locks = Rwlock.acquisition_counts () in
  Alcotest.(check int) "every fill took the lockless path" (iters + 2)
    (counter kernel "readdir_scratch_warm" - warm0);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "zero minor-heap words over %d warm %d-entry listings" iters n_listing)
    0.0 words;
  Alcotest.(check (pair int int)) "zero rwlock acquisitions over warm listings" (0, 0)
    locks;
  (* A mutation devalidates exactly once: the next fill goes cold (stripe
     locked, re-promoted), the one after is warm again. *)
  get "churn" (S.write_file p "/ls/new" "y");
  Alcotest.(check int) "post-churn fill sees the new entry" (n_listing + 1)
    (S.readdir_fill p fd);
  let warm1 = counter kernel "readdir_scratch_warm" in
  Alcotest.(check int) "re-warmed" (n_listing + 1) (S.readdir_fill p fd);
  Alcotest.(check int) "second post-churn fill is warm again" 1
    (counter kernel "readdir_scratch_warm" - warm1)

let test_negative_list_eviction_bounded () =
  (* §6.3: negative dentries live on per-stripe bounded LRU lists.  A
     stat storm of absent names far beyond the cap must evict (counted),
     keep every list at or under the cap, and never disturb cache
     structure. *)
  let cap = 8 in
  let config = { Config.optimized with Config.neg_list_cap = cap } in
  let kernel, p = ram_kernel ~config () in
  let d = Kernel.dcache kernel in
  get "dirs" (S.mkdir_p p "/neg/a");
  get "dirs" (S.mkdir_p p "/neg/b");
  (* Completeness lost: only incomplete directories cache negatives. *)
  Kernel.drop_caches kernel;
  let storm = 40 * cap in
  for i = 0 to storm - 1 do
    let parent = if i land 1 = 0 then "a" else "b" in
    expect_err Errno.ENOENT "absent"
      (S.stat p (Printf.sprintf "/neg/%s/ghost%d" parent i))
  done;
  let occ = Dcache.neg_occupancy d in
  Array.iteri
    (fun i n ->
      if n > cap then
        Alcotest.failf "neg list %d holds %d entries over the cap %d" i n cap)
    occ;
  Alcotest.(check bool) "the storm forced evictions" true
    (counter kernel "neg_evicted" > 0);
  Alcotest.(check bool) "some negatives stayed resident" true
    (Array.fold_left ( + ) 0 occ > 0);
  (match Dcache.self_check d with
  | [] -> ()
  | problems -> Alcotest.failf "invariants violated:\n%s" (String.concat "\n" problems));
  (* Completing a directory drops its negatives: its listing answers
     absent names by verdict, and a second storm caches none. *)
  ignore (get "complete" (S.readdir_path p "/neg/a"));
  let created0 = counter kernel "negative_created" in
  for i = 0 to 4 * cap do
    expect_err Errno.ENOENT "post-complete absent"
      (S.stat p (Printf.sprintf "/neg/a/more%d" i))
  done;
  Alcotest.(check int) "the complete directory cached no negative" created0
    (counter kernel "negative_created");
  Alcotest.(check (list string)) "no negative under the complete directory" []
    (Dcache.self_check d);
  Alcotest.(check bool) "lists still bounded after the second storm" true
    (Array.for_all (fun n -> n <= cap) (Dcache.neg_occupancy d));
  (* Per-mount generation invalidation: one store devalues every cached
     negative; the names still read as absent (via the backend), and the
     stale entries are unhashed lazily as they are touched. *)
  get "invalidate" (S.invalidate_negatives p "/");
  Alcotest.(check bool) "generation bump counted" true
    (counter kernel "neg_gen_invalidations" > 0);
  (* ghost319 is the newest /neg/b negative, so the LRU still holds it and
     the walk must trip over its stale generation (ghost1 would long since
     have been evicted). *)
  expect_err Errno.ENOENT "still absent after invalidation"
    (S.stat p (Printf.sprintf "/neg/b/ghost%d" (storm - 1)));
  Alcotest.(check bool) "stale negatives were detected" true
    (counter kernel "walk_stale_negative" > 0);
  (* cap 0 disables tracking entirely: no list ever grows. *)
  let kernel0, p0 =
    ram_kernel ~config:{ Config.optimized with Config.neg_list_cap = 0 } ()
  in
  get "dir" (S.mkdir_p p0 "/z");
  Kernel.drop_caches kernel0;
  for i = 0 to 99 do
    expect_err Errno.ENOENT "absent" (S.stat p0 (Printf.sprintf "/z/no%d" i))
  done;
  Alcotest.(check int) "cap 0 tracks nothing" 0
    (Array.fold_left ( + ) 0 (Dcache.neg_occupancy (Kernel.dcache kernel0)))

let suite =
  [
    Alcotest.test_case "warm fastpath hit allocates zero minor words" `Quick
      test_warm_hit_zero_alloc;
    Alcotest.test_case "warm baseline stat allocates no words per component" `Quick
      test_baseline_walk_per_component;
    Alcotest.test_case "warm DIR_COMPLETE readdir fill allocates zero minor words" `Quick
      test_warm_readdir_fill_zero_alloc;
    Alcotest.test_case "negative lists stay bounded under a stat storm" `Quick
      test_negative_list_eviction_bounded;
    Alcotest.test_case "warm all-hit batch submit allocates zero minor words" `Quick
      test_warm_batch_zero_alloc;
    Alcotest.test_case "warm lexical dot-dot hit allocates zero minor words" `Quick
      test_warm_lexical_dotdot_zero_alloc;
    Alcotest.test_case "warm live-lease hit allocates zero minor words" `Quick
      test_warm_lease_hit_zero_alloc;
    Alcotest.test_case "warm negative hit allocates zero minor words" `Quick
      test_warm_negative_hit_zero_alloc;
    Alcotest.test_case "counter bump and add by id allocate zero minor words" `Quick
      test_counter_bump_zero_alloc;
    Alcotest.test_case "page-cache hit allocates zero minor words" `Quick
      test_pagecache_hit_zero_alloc;
    Alcotest.test_case "extfs getattr, rename and create stay under their word bounds"
      `Quick test_extfs_call_words;
    Alcotest.test_case "armed trace ring stamp allocates zero minor words" `Quick
      test_armed_ring_stamp_zero_alloc;
    Alcotest.test_case "warm hit with armed ring allocates zero minor words" `Quick
      test_warm_hit_armed_ring_zero_alloc;
    Alcotest.test_case "span minting allocates zero minor words (armed and disarmed)"
      `Quick test_span_minting_zero_alloc;
    Alcotest.test_case "snapshot recording allocates zero minor words" `Quick
      test_snapshot_recording_zero_alloc;
    Alcotest.test_case "prefix-resumed miss reuses snapshot scratch" `Quick
      test_prefix_resume_scratch_reuse;
    Alcotest.test_case "prefix negative fast-fail allocates zero minor words" `Quick
      test_prefix_negfail_zero_alloc;
    Alcotest.test_case "deep negative stays zero-alloc warm" `Quick
      test_deep_negative_zero_alloc;
    Alcotest.test_case "unlink in a complete dir: old name fast-fails, zero-alloc" `Quick
      test_unlink_in_complete_dir;
    Alcotest.test_case "rename in a complete dir: old name fast-fails, zero-alloc" `Quick
      test_rename_in_complete_dir;
    Alcotest.test_case "in-place hasher matches split+feed_string" `Quick
      test_inplace_hasher_equivalence;
    Alcotest.test_case "in-place hasher resumes from cached state" `Quick
      test_inplace_hasher_resume_mid_path;
    Alcotest.test_case "in-place hasher dot-dot cursor protocol" `Quick
      test_inplace_hasher_dotdot_cursor;
    Alcotest.test_case "in-place hasher grows key material" `Quick test_inplace_hasher_grow;
    QCheck_alcotest.to_alcotest fused_scanner_property;
    Alcotest.test_case "in-place hasher rejects over-long components" `Quick
      test_inplace_hasher_toolong;
    Alcotest.test_case "DLHT churn keeps chains exact" `Quick test_dlht_churn;
    Alcotest.test_case "DLHT mount-alias re-signature churn" `Quick
      test_dlht_mount_alias_churn;
    Alcotest.test_case "DLHT bucket-count validation" `Quick test_dlht_bucket_validation;
    Alcotest.test_case "DLHT resize keeps every entry" `Quick
      test_dlht_resize_keeps_entries;
    Alcotest.test_case "DLHT sigless removal degrades loudly and heals" `Quick
      test_dlht_sigless_scan_recovery;
    Alcotest.test_case "warm PCC refill allocates zero minor words, takes no lock" `Quick
      test_refill_zero_alloc;
    Alcotest.test_case "dropped kernels free their default credential's PCC" `Quick
      test_dropped_kernels_free_their_pcc;
  ]
