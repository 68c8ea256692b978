(* Fault injection: the storage and network stacks under failing disks,
   crashed volumes and lossy RPCs — and the cache degrading honestly.

   The PRNG seed for every schedule comes from DCACHE_FAULT_SEED (default
   1); CI runs the suite under two fixed seeds.  Determinism means any
   failure replays exactly. *)

open Dcache_types
open Dcache_vfs.Types
open Kit
module Fault = Dcache_util.Fault
module Prng = Dcache_util.Prng
module Vclock = Dcache_util.Vclock
module Blockdev = Dcache_storage.Blockdev
module Pagecache = Dcache_storage.Pagecache
module Extfs = Dcache_fs.Extfs
module Extfs_fsck = Dcache_fs.Extfs_fsck
module Netfs = Dcache_fs.Netfs
module Fs_intf = Dcache_fs.Fs_intf
module Dcache = Dcache_vfs.Dcache
module Dlht = Dcache_core.Dlht
module Fastpath = Dcache_core.Fastpath

let seed =
  match Option.bind (Sys.getenv_opt "DCACHE_FAULT_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 1

(* List.init does not promise evaluation order; fault schedules care. *)
let rec fire_seq site n =
  if n = 0 then []
  else begin
    let x = Fault.fire site in
    x :: fire_seq site (n - 1)
  end

(* --- the fault registry itself --- *)

let test_schedules () =
  let inj = Fault.create ~seed:42 () in
  let nth = Fault.site inj "t.nth" in
  Fault.arm nth (Fault.Nth 3);
  Alcotest.(check (list bool))
    "Nth 3 fires exactly once, then disarms"
    [ false; false; true; false; false; false ]
    (fire_seq nth 6);
  Alcotest.(check int) "one injection" 1 (Fault.injected nth);
  Alcotest.(check int) "six arrivals" 6 (Fault.arrivals nth);
  let w = Fault.site inj "t.window" in
  ignore (Fault.fire w);
  (* arrivals before arming don't count against the window *)
  Fault.arm w (Fault.Window { first = 2; last = 3 });
  Alcotest.(check (list bool))
    "window covers arrivals 2..3 after arming"
    [ false; true; true; false ]
    (fire_seq w 4);
  (* probabilistic schedules replay exactly from the injector seed *)
  let a = Fault.site (Fault.create ~seed:7 ()) "t.p" in
  let b = Fault.site (Fault.create ~seed:7 ()) "t.p" in
  Fault.arm a (Fault.Probability 0.3);
  Fault.arm b (Fault.Probability 0.3);
  Alcotest.(check (list bool)) "same seed, same stream" (fire_seq a 100) (fire_seq b 100);
  let rate = Fault.injected a in
  Alcotest.(check bool) "rate is roughly 0.3" true (rate > 10 && rate < 55);
  (* malformed schedules are rejected *)
  List.iter
    (fun s ->
      match Fault.arm nth s with
      | () -> Alcotest.fail "malformed schedule accepted"
      | exception Invalid_argument _ -> ())
    [ Fault.Nth 0; Fault.Probability 1.5; Fault.Window { first = 0; last = 3 } ]

let test_disarmed_fire_is_free () =
  let inj = Fault.create ~seed () in
  let site = Fault.site inj "t.cold" in
  let before = Gc.minor_words () in
  let after0 = Gc.minor_words () in
  let self = after0 -. before in
  for _ = 1 to 10_000 do
    ignore (Fault.fire site)
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "disarmed fire allocates nothing" 0.0 (after -. after0 -. self);
  Alcotest.(check int) "but still counts arrivals" 10_000 (Fault.arrivals site)

(* --- block device --- *)

let bs = Blockdev.default_config.Blockdev.block_size

let test_blockdev_faults () =
  let inj = Fault.create ~seed () in
  let dev = Blockdev.create ~faults:inj (Vclock.create ()) in
  let block_a = Bytes.make bs 'A' in
  Blockdev.write_block dev 5 block_a;
  Fault.arm (Fault.site inj "blockdev.read_eio") (Fault.Nth 1);
  (match Blockdev.read_block_result dev 5 with
  | Error Errno.EIO -> ()
  | Ok _ -> Alcotest.fail "injected read fault not observed"
  | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  Alcotest.(check int) "read error counted" 1 (Blockdev.read_errors dev);
  Alcotest.(check bytes) "fault was transient" block_a
    (get "re-read" (Blockdev.read_block_result dev 5));
  Fault.arm (Fault.site inj "blockdev.write_eio") (Fault.Nth 1);
  expect_err Errno.EIO "injected write fault" (Blockdev.write_block_result dev 7 block_a);
  Alcotest.(check int) "write error counted" 1 (Blockdev.write_errors dev);
  get "write after fault" (Blockdev.write_block_result dev 7 block_a);
  (* torn write: silently persists only a sector-aligned prefix *)
  let block_b = Bytes.make bs 'B' in
  Fault.arm (Fault.site inj "blockdev.torn_write") (Fault.Nth 1);
  Blockdev.write_block dev 6 block_b;
  let back = Blockdev.read_block dev 6 in
  Alcotest.(check bool) "write was torn" false (Bytes.equal back block_b);
  let torn_at = ref bs in
  Bytes.iteri
    (fun i c ->
      if c <> 'B' && !torn_at = bs then torn_at := i;
      if i >= !torn_at then
        Alcotest.(check char) (Printf.sprintf "tail keeps old byte %d" i) '\000' c)
    back;
  Alcotest.(check int) "tear is sector-aligned" 0 (!torn_at mod 512);
  (* bit flip: one bit of one read's copy, then clean again *)
  Fault.arm (Fault.site inj "blockdev.read_bitflip") (Fault.Nth 1);
  let flipped = Blockdev.read_block dev 5 in
  let diff_bits = ref 0 in
  Bytes.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code (Bytes.get block_a i) in
      let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1) in
      diff_bits := !diff_bits + popcount x)
    flipped;
  Alcotest.(check int) "exactly one bit flipped" 1 !diff_bits;
  Alcotest.(check bytes) "flip was transient" block_a (Blockdev.read_block dev 5)

(* --- page cache --- *)

let test_pagecache_crash () =
  let dev = Blockdev.create (Vclock.create ()) in
  let cache = Pagecache.create dev in
  Pagecache.write_page cache 3 (Bytes.make bs 'x');
  Pagecache.flush cache;
  Pagecache.write_page cache 3 (Bytes.make bs 'y');
  Pagecache.write_page cache 4 (Bytes.make bs 'z');
  let lost = Pagecache.crash cache in
  Alcotest.(check int) "two dirty pages lost" 2 lost;
  Alcotest.(check int) "nothing cached after power loss" 0 (Pagecache.cached_pages cache);
  Alcotest.(check char) "block 3 reverted to the flushed state" 'x'
    (Bytes.get (Blockdev.read_block dev 3) 0);
  Alcotest.(check char) "block 4 was never persisted" '\000'
    (Bytes.get (Blockdev.read_block dev 4) 0)

let test_with_page_mutation_check () =
  let dev = Blockdev.create (Vclock.create ()) in
  let cache = Pagecache.create dev in
  Fault.checks_enabled := true;
  Fun.protect
    ~finally:(fun () -> Fault.checks_enabled := false)
    (fun () ->
      ignore (Pagecache.with_page cache 0 (fun b -> Bytes.get b 0));
      (match Pagecache.with_page cache 0 (fun b -> Bytes.set b 0 '!') with
      | () -> Alcotest.fail "mutation through with_page not caught"
      | exception Failure _ -> ());
      (* the sanctioned mutation path stays open *)
      Pagecache.with_page_mut cache 0 (fun b -> Bytes.set b 0 '?'))

(* --- crash-at-every-sync-boundary property test ---

   Random op sequences against extfs; at every sync boundary the on-disk
   image (read through a fresh page cache, exactly what a crash right after
   the sync would leave) must pass fsck with zero errors.  The run ends
   with a real [Pagecache.crash] + remount, which must also recover clean:
   without a journal the honest guarantee is "you get the last sync
   boundary back", and fsck is the judge. *)

let assert_clean device what =
  let view = Pagecache.create device in
  match Extfs_fsck.check view with
  | Error e -> Alcotest.failf "%s: fsck did not run: %s" what (Errno.to_string e)
  | Ok report -> (
    match Extfs_fsck.errors report with
    | [] -> ()
    | issue :: _ as issues ->
      Alcotest.failf "%s: fsck found %d errors, first: %s" what (List.length issues)
        issue.Extfs_fsck.message)

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

let pick prng l = List.nth l (Prng.int prng (List.length l))

let random_op prng p dirs files =
  let fresh () = Prng.string prng ~min_len:3 ~max_len:8 in
  match Prng.int prng 10 with
  | 0 | 1 -> (
    let path = join (pick prng !dirs) (fresh ()) in
    match S.mkdir p path with Ok _ -> dirs := path :: !dirs | Error _ -> ())
  | 2 | 3 | 4 -> (
    let path = join (pick prng !dirs) (fresh ()) in
    let data = String.make (Prng.int prng 6000) 'd' in
    match S.write_file p path data with Ok _ -> files := path :: !files | Error _ -> ())
  | 5 -> (
    match !files with
    | [] -> ()
    | _ -> (
      let f = pick prng !files in
      match S.unlink p f with
      | Ok _ -> files := List.filter (fun x -> x <> f) !files
      | Error _ -> ()))
  | 6 | 7 -> (
    match !files with
    | [] -> ()
    | _ -> (
      let f = pick prng !files in
      let dst = join (pick prng !dirs) (fresh ()) in
      match S.rename p f dst with
      | Ok _ -> files := dst :: List.filter (fun x -> x <> f) !files
      | Error _ -> ()))
  | 8 -> ignore (S.symlink p ~target:"/elsewhere" (join (pick prng !dirs) (fresh ())))
  | _ -> (
    match List.filter (fun d -> d <> "/") !dirs with
    | [] -> ()
    | candidates -> (
      let d = pick prng candidates in
      match S.rmdir p d with
      | Ok _ ->
        dirs := List.filter (fun x -> x <> d) !dirs;
        files := List.filter (fun f -> not (String.length f > String.length d
                                            && String.sub f 0 (String.length d + 1) = d ^ "/")) !files
      | Error _ -> ()))

let test_crash_at_sync_boundaries () =
  let prng = Prng.create seed in
  for round = 1 to 3 do
    let clock = Vclock.create () in
    let device = Blockdev.create clock in
    let cache = Pagecache.create device in
    let fs = Extfs.mkfs_and_mount cache in
    let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
    let p = Proc.spawn kernel in
    let dirs = ref [ "/" ] and files = ref [] in
    for i = 1 to 60 do
      random_op prng p dirs files;
      if i mod 10 = 0 then begin
        Pagecache.flush cache;
        assert_clean device (Printf.sprintf "round %d, sync boundary at op %d" round i)
      end
    done;
    (* a tail of unsynced ops, then the lights go out *)
    for _ = 1 to 8 do
      random_op prng p dirs files
    done;
    ignore (Pagecache.crash cache);
    assert_clean device (Printf.sprintf "round %d, after crash" round);
    (* reboot: remount the survived image and keep working *)
    let cache' = Pagecache.create device in
    let fs' = get "remount" (Extfs.mount cache') in
    let kernel' = Kernel.create ~config:Config.optimized ~root_fs:fs' () in
    let p' = Proc.spawn kernel' in
    ignore (get "root stats after recovery" (S.stat p' "/"));
    let dirs' = ref [ "/" ] and files' = ref [] in
    for _ = 1 to 15 do
      random_op prng p' dirs' files'
    done;
    Pagecache.flush cache';
    assert_clean device (Printf.sprintf "round %d, after recovery ops" round)
  done

(* --- netfs: drop, timeout, backoff, retry, give-up --- *)

let net_parts ?retry ~protocol () =
  let clock = Vclock.create () in
  let backing = Dcache_fs.Ramfs.create () in
  let inj = Fault.create ~seed () in
  let server = Netfs.server ~rpc_latency_ns:1000 ~faults:inj ~clock backing in
  let fs = Netfs.client ~protocol ?retry server in
  (fs, server, inj, clock, backing)

let test_netfs_retry_recovers () =
  let fs, server, inj, clock, _ = net_parts ~protocol:Netfs.Stateful () in
  let root = fs.Fs_intf.root_ino in
  ignore (get "create" (fs.Fs_intf.create root "f" File_kind.Regular 0o644 ~uid:0 ~gid:0));
  Fault.arm (Fault.site inj "netfs.drop") (Fault.Nth 1);
  let v0 = Vclock.elapsed_ns clock in
  ignore (get "lookup despite one lost exchange" (fs.Fs_intf.lookup root "f"));
  let stats = Netfs.rpc_stats server in
  Alcotest.(check int) "one drop" 1 stats.Netfs.rs_drops;
  Alcotest.(check int) "one retransmission" 1 stats.Netfs.rs_retries;
  Alcotest.(check int) "no give-up" 0 stats.Netfs.rs_giveups;
  (* timeout (1 ms) + first backoff (0.5 ms) + one successful round trip *)
  let elapsed = Int64.sub (Vclock.elapsed_ns clock) v0 in
  Alcotest.(check int64) "deterministic virtual cost" 1_501_000L elapsed

let test_netfs_backoff_growth () =
  let fs, _, inj, clock, _ = net_parts ~protocol:Netfs.Stateful () in
  Fault.arm (Fault.site inj "netfs.drop") (Fault.Window { first = 1; last = 3 });
  let v0 = Vclock.elapsed_ns clock in
  expect_err Errno.ENOENT "resolves on the 4th transmission"
    (fs.Fs_intf.lookup fs.Fs_intf.root_ino "missing");
  (* 3 timeouts + backoffs 0.5/1/2 ms + the final round trip *)
  let elapsed = Int64.sub (Vclock.elapsed_ns clock) v0 in
  Alcotest.(check int64) "3 timeouts + doubling backoff" 6_501_000L elapsed

let test_netfs_gives_up_with_eio () =
  let retry = { Netfs.default_retry with Netfs.max_retries = 2 } in
  let fs, server, inj, _, _ = net_parts ~retry ~protocol:Netfs.Stateful () in
  let drop = Fault.site inj "netfs.drop" in
  Fault.arm drop Fault.Always;
  expect_err Errno.EIO "EIO after max retries" (fs.Fs_intf.lookup fs.Fs_intf.root_ino "x");
  let stats = Netfs.rpc_stats server in
  Alcotest.(check int) "gave up once" 1 stats.Netfs.rs_giveups;
  Alcotest.(check int) "initial + 2 retries all dropped" 3 stats.Netfs.rs_drops;
  Fault.disarm drop;
  expect_err Errno.ENOENT "link heals, server answers again"
    (fs.Fs_intf.lookup fs.Fs_intf.root_ino "x")

let test_netfs_drc_executes_once () =
  let fs, server, inj, _, backing = net_parts ~protocol:Netfs.Stateful () in
  let root = fs.Fs_intf.root_ino in
  (* the create executes on the server but its reply is lost *)
  Fault.arm (Fault.site inj "netfs.drop") (Fault.Nth 1);
  ignore (get "create survives a lost reply"
      (fs.Fs_intf.create root "once" File_kind.Regular 0o644 ~uid:0 ~gid:0));
  let stats = Netfs.rpc_stats server in
  Alcotest.(check int) "duplicate answered from the reply cache" 1 stats.Netfs.rs_drc_hits;
  let entries = get "server listing" (backing.Fs_intf.readdir backing.Fs_intf.root_ino) in
  let count =
    List.length (List.filter (fun e -> e.Fs_intf.name = "once") entries)
  in
  Alcotest.(check int) "server executed the create exactly once" 1 count

(* --- the cache must not lie under transient EIO --- *)

let faulty_disk_kernel () =
  let inj = Fault.create ~seed () in
  let vclock = Vclock.create () in
  let device = Blockdev.create ~faults:inj vclock in
  let cache = Pagecache.create device in
  let fs = Extfs.mkfs_and_mount cache in
  let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  (kernel, Proc.spawn kernel, inj, cache)

let dlht_population kernel =
  match Dlht.of_namespace_opt (Kernel.init_ns kernel) with
  | Some table -> Dlht.population table
  | None -> 0

let test_transient_eio_pollutes_nothing () =
  let kernel, p, inj, cache = faulty_disk_kernel () in
  get "tree" (S.mkdir_p p "/a/b");
  ignore (get "file" (S.write_file p "/a/b/f" "data"));
  Kernel.drop_caches kernel;
  Pagecache.drop_caches cache;
  let neg0 = counter kernel "negative_created" in
  let deep0 = counter kernel "deep_negative_created" in
  let pop0 = dlht_population kernel in
  let read_fail = Fault.site inj "blockdev.read_eio" in
  Fault.arm read_fail Fault.Always;
  expect_err Errno.EIO "walk reports the I/O failure" (S.stat p "/a/b/f");
  Alcotest.(check int) "no negative dentry cached" neg0 (counter kernel "negative_created");
  Alcotest.(check int) "no deep negative cached" deep0 (counter kernel "deep_negative_created");
  Alcotest.(check int) "DLHT not repopulated" pop0 (dlht_population kernel);
  Alcotest.(check bool) "populate was explicitly skipped" true
    (counter kernel "fastpath_eio_no_populate" > 0);
  (* the failure was transient: the same path resolves once the disk heals,
     proving no stale "absent" answer was cached *)
  Fault.disarm read_fail;
  ignore (get "resolves after the fault clears" (S.stat p "/a/b/f"));
  Alcotest.(check (list string)) "dcache invariants hold" []
    (Dcache.self_check (Kernel.dcache kernel))

(* A resumed miss with a one-name suffix follows the EIO rule like any
   other walk: the failed fill publishes nothing. *)
let test_resumed_miss_eio_publishes_nothing () =
  let kernel, p, inj, cache = faulty_disk_kernel () in
  get "tree" (S.mkdir_p p "/a/b");
  ignore (get "file" (S.write_file p "/a/b/f" "data"));
  Kernel.drop_caches kernel;
  Pagecache.drop_caches cache;
  ignore (get "warm the directory" (S.stat p "/a/b"));
  Pagecache.drop_caches cache;
  let res0 = counter kernel "walk_resumed" in
  let comps0 = counter kernel "walk_components" in
  let eio0 = counter kernel "fastpath_eio_no_populate" in
  let pop0 = dlht_population kernel in
  let read_fail = Fault.site inj "blockdev.read_eio" in
  Fault.arm read_fail Fault.Always;
  expect_err Errno.EIO "the resumed fill reports the I/O failure" (S.stat p "/a/b/f");
  Fault.disarm read_fail;
  Alcotest.(check int) "resumed at the warm directory" (res0 + 1)
    (counter kernel "walk_resumed");
  Alcotest.(check int) "one component walked" (comps0 + 1) (counter kernel "walk_components");
  Alcotest.(check int) "DLHT not repopulated" pop0 (dlht_population kernel);
  Alcotest.(check int) "populate was explicitly skipped" (eio0 + 1)
    (counter kernel "fastpath_eio_no_populate");
  ignore (get "resolves after the fault clears" (S.stat p "/a/b/f"));
  Alcotest.(check (list string)) "dcache invariants hold" []
    (Dcache.self_check (Kernel.dcache kernel))

(* --- scrub: quarantine instead of serving corrupt entries --- *)

let capture_dentry kernel p path =
  let captured = ref None in
  (match
     Fastpath.lookup_into (Kernel.fastpath kernel) (Proc.walk_ctx p) path
       ~within:(fun _mnt d ->
         captured := Some d;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "capture %s: %s" path (Errno.to_string e));
  Option.get !captured

let test_dlht_scrub_quarantines () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/x/y");
  ignore (get "file" (S.write_file p "/x/y/z" "v"));
  ignore (get "warm" (S.stat p "/x/y/z"));
  let table = Option.get (Dlht.of_namespace_opt (Kernel.init_ns kernel)) in
  Alcotest.(check bool) "table populated" true (Dlht.population table > 0);
  (* Corrupt a chained entry the way a raced shootdown would: membership
     kept, signature gone. *)
  let d = capture_dentry kernel p "/x/y/z" in
  d.d_sig <- None;
  Alcotest.(check bool) "self_check sees the damage" true (Dlht.self_check table <> []);
  let report = Kernel.scrub kernel in
  Alcotest.(check int) "dcache side is healthy" 0 report.Kernel.dcache_quarantined;
  Alcotest.(check bool) "entry quarantined" true (report.Kernel.dlht_quarantined >= 1);
  Alcotest.(check (list string)) "table healthy after scrub" [] (Dlht.self_check table);
  (* quarantine means degrade, not lose: the slowpath re-resolves *)
  ignore (get "path still resolves" (S.stat p "/x/y/z"));
  ignore (get "and again (repopulated)" (S.stat p "/x/y/z"))

let test_dcache_scrub_quarantines () =
  let kernel, p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p p "/q/r");
  ignore (get "file" (S.write_file p "/q/r/s" "v"));
  ignore (get "warm" (S.stat p "/q/r/s"));
  let d = capture_dentry kernel p "/q/r/s" in
  (* Simulate hash-table corruption: the dentry claims it is unhashed while
     still chained everywhere else. *)
  d.d_hashed <- false;
  Alcotest.(check bool) "self_check sees the damage" true
    (Dcache.self_check (Kernel.dcache kernel) <> []);
  let report = Kernel.scrub kernel in
  Alcotest.(check bool) "dentry quarantined" true (report.Kernel.dcache_quarantined >= 1);
  Alcotest.(check (list string)) "cache healthy after scrub" []
    (Dcache.self_check (Kernel.dcache kernel));
  ignore (get "path re-resolves from the fs" (S.stat p "/q/r/s"))

(* --- the disabled hooks must preserve the zero-allocation fastpath --- *)

let within_unit _mnt _dentry = Ok ()

let measure_minor_words iters f =
  f ();
  f ();
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let self = b -. a in
  for _ = 1 to iters do
    f ()
  done;
  let c = Gc.minor_words () in
  c -. b -. self

let test_disabled_hooks_keep_fastpath_allocation_free () =
  let kernel, p, inj, _cache = faulty_disk_kernel () in
  get "tree" (S.mkdir_p p "/a/b/c");
  ignore (get "file" (S.write_file p "/a/b/c/target" "x"));
  let fp = Kernel.fastpath kernel in
  let ctx = Proc.walk_ctx p in
  let probe () =
    match Fastpath.lookup_into fp ctx "/a/b/c/target" ~within:within_unit with
    | Ok () -> ()
    | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e)
  in
  probe ();
  let h0 = counter kernel "fastpath_hit" in
  let words = measure_minor_words 10_000 probe in
  Alcotest.(check bool) "probes stayed on the fastpath" true
    (counter kernel "fastpath_hit" - h0 >= 10_000);
  Alcotest.(check (float 0.0))
    "zero minor-heap words with fault hooks plumbed in" 0.0 words;
  (* and the disarmed sites themselves are free *)
  let site = Fault.site inj "blockdev.read_eio" in
  let fire () = ignore (Fault.fire site) in
  let words = measure_minor_words 10_000 fire in
  Alcotest.(check (float 0.0)) "disarmed fire allocates nothing" 0.0 words

(* --- crash points inside the stripe-locked mutation sections ---

   The stripe scope bumps the held stripes' seqcounts, runs the mutation
   body, then bumps again; a crash raised between the bump and the splice
   is the worst interleaving — the property is that the section releases
   its stripe(s) and the read lock on the way out, so the very next
   operation neither deadlocks nor observes a wedged odd seqcount, and
   [Kernel.scrub] + [Dcache.self_check] find nothing to repair.  A leaked
   lock fails this test by hanging it; a torn splice fails the
   self-check. *)

let crash_site_names =
  [|
    "syscalls.sharded_create";
    "syscalls.sharded_unlink";
    "syscalls.sharded_rename";
    "syscalls.sharded_invalidate";
    "syscalls.sharded_mkdir";
    "syscalls.sharded_rmdir";
  |]

let run_stripe_crash_schedule s =
  let inj = Fault.create ~seed:s () in
  let kernel, p = ram_kernel ~config:Config.optimized () in
  S.install_crash_sites kernel inj;
  Fun.protect ~finally:(fun () -> S.clear_crash_sites kernel) (fun () ->
      let prng = Prng.create ((s * 31) + 5) in
      get "tree" (S.mkdir_p p "/w/x");
      get "tree2" (S.mkdir_p p "/w/y");
      for i = 0 to 5 do
        get "seed file" (S.write_file p (Printf.sprintf "/w/x/f%d" i) "v")
      done;
      ignore (S.stat p "/w/x/f0");
      let crashes = ref 0 in
      let fired = Array.make (Array.length crash_site_names) 0 in
      for round = 1 to 24 do
        (* Pick the op and arm its own section's crash point, so every
           round actually reaches an armed site. *)
        let oi = Prng.int prng (Array.length crash_site_names) in
        let site = Fault.site inj crash_site_names.(oi) in
        Fault.arm site (Fault.Nth 1);
        let op () =
          match oi with
          | 0 -> ignore (S.write_file p (Printf.sprintf "/w/x/n%d" round) "x")
          | 1 -> ignore (S.unlink p (Printf.sprintf "/w/x/f%d" (Prng.int prng 6)))
          | 2 ->
            ignore
              (S.rename p
                 (Printf.sprintf "/w/x/f%d" (Prng.int prng 6))
                 (Printf.sprintf "/w/y/r%d" round))
          | 3 -> ignore (S.invalidate_path p "/w/x")
          | 4 ->
            (* The stat caches a negative for the name, so the mkdir is
               striped whatever /w/y's completeness. *)
            let dir = Printf.sprintf "/w/y/d%d" round in
            ignore (S.stat p dir);
            ignore (S.mkdir p dir)
          | _ ->
            (* rmdir peeks the cached target under the parent stripe, then
               takes both stripes through [lock2]: the crash fires there. *)
            let dir = Printf.sprintf "/w/y/g%d" round in
            ignore (S.mkdir p dir);
            ignore (S.rmdir p dir)
        in
        (try op ()
         with Fault.Crash _ ->
           incr crashes;
           fired.(oi) <- fired.(oi) + 1);
        Fault.disarm site;
        (* The oops left no lock held and nothing scrub can't repair. *)
        ignore (Kernel.scrub kernel);
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d round %d: dcache clean after crash+scrub" s round)
          []
          (Dcache.self_check (Kernel.dcache kernel));
        (* And the kernel keeps working: a lookup plus both flavours of
           sharded mutation would hang on a leaked stripe or read lock. *)
        ignore (S.stat p "/w/x/f0");
        get "post-crash create" (S.write_file p (Printf.sprintf "/w/x/post%d" round) "y");
        get "post-crash unlink" (S.unlink p (Printf.sprintf "/w/x/post%d" round))
      done;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: crash points actually fired (%d)" s !crashes)
        true
        (!crashes >= 12);
      fired)

let test_stripe_crash_points_scrub_repairs () =
  let fired = List.map run_stripe_crash_schedule [ 1; 1337; 9001 ] in
  Array.iteri
    (fun i name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s fired under some seed" name)
        true
        (List.exists (fun f -> f.(i) > 0) fired))
    crash_site_names

let suite =
  [
    Alcotest.test_case "fault schedules are deterministic" `Quick test_schedules;
    Alcotest.test_case "disarmed fire is allocation-free" `Quick test_disarmed_fire_is_free;
    Alcotest.test_case "blockdev EIO / torn write / bit flip" `Quick test_blockdev_faults;
    Alcotest.test_case "pagecache crash loses dirty pages only" `Quick test_pagecache_crash;
    Alcotest.test_case "with_page mutation caught under checks" `Quick
      test_with_page_mutation_check;
    Alcotest.test_case "crash at every sync boundary recovers clean" `Quick
      test_crash_at_sync_boundaries;
    Alcotest.test_case "netfs retry recovers from a lost exchange" `Quick
      test_netfs_retry_recovers;
    Alcotest.test_case "netfs backoff doubles per retry" `Quick test_netfs_backoff_growth;
    Alcotest.test_case "netfs gives up with EIO, heals after" `Quick
      test_netfs_gives_up_with_eio;
    Alcotest.test_case "netfs duplicate reply cache executes once" `Quick
      test_netfs_drc_executes_once;
    Alcotest.test_case "transient EIO caches nothing" `Quick
      test_transient_eio_pollutes_nothing;
    Alcotest.test_case "resumed one-name miss EIO publishes nothing" `Quick
      test_resumed_miss_eio_publishes_nothing;
    Alcotest.test_case "DLHT scrub quarantines corrupt entries" `Quick
      test_dlht_scrub_quarantines;
    Alcotest.test_case "dcache scrub quarantines corrupt dentries" `Quick
      test_dcache_scrub_quarantines;
    Alcotest.test_case "disabled fault hooks keep the fastpath allocation-free" `Quick
      test_disabled_hooks_keep_fastpath_allocation_free;
    Alcotest.test_case "stripe crash points: scrub repairs, locks released" `Quick
      test_stripe_crash_points_scrub_repairs;
  ]
