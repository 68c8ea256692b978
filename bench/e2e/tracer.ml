(* Outside-in layer instrumentation.  Every boundary observed here is
   crossed by the benchmark's own code: the runner opens one span per
   request, [Calls] wraps each Syscalls entry point a request issues, and
   [wrap_fs] sits between Extfs and Fs_overhead.  Nothing in lib/ changes.

   Counts are always on (integer bumps).  Clock reads and spans happen only
   while [traced] is set, behind one load-and-branch per boundary, so an
   untraced round pays almost nothing for the instrumentation.

   One domain only: the state below is plain global refs. *)

module Vclock = Dcache_util.Vclock
module Fs = Dcache_fs.Fs_intf
module A = Bigarray.Array1

let now = Dcache_util.Clock.monotonic_ns

(* --- always-on counts, reset at the start of each timed phase --- *)

let ops = ref 0 (* Syscalls issued by the benchmark *)
let mutating_ops = ref 0 (* renames, unlinks and creating opens among them *)
let creating_opens = ref 0
let fs_calls = ref 0
let fs_lookups = ref 0
let fs_readdirs = ref 0
let fs_mutations = ref 0

(* --- tracing --- *)

let traced = ref false

(* Wall time inside syscall spans, and below the fs wrapper, while traced.
   Tracing is on only inside the timed loop, where every fs call happens
   inside a syscall. *)
let sys_ns = ref 0
let fs_real_ns = ref 0

(* The rig's device and fs-overhead clocks, set by [Rig.create]. *)
let dev_clock = ref (Vclock.create ())
let fs_clock = ref (Vclock.create ())
let[@inline] vns c = Int64.to_int (Vclock.elapsed_ns !c)

let names =
  [| "request"; "stat"; "lstat"; "access"; "open"; "read"; "write"; "close"; "readdir";
     "rename"; "unlink"; "fs.lookup"; "fs.getattr"; "fs.setattr"; "fs.readdir"; "fs.create";
     "fs.symlink"; "fs.link"; "fs.unlink"; "fs.rmdir"; "fs.rename"; "fs.readlink"; "fs.read";
     "fs.write" |]

let k_request = 0
let k_stat = 1
let k_lstat = 2
let k_access = 3
let k_open = 4
let k_read = 5
let k_write = 6
let k_close = 7
let k_readdir = 8
let k_rename = 9
let k_unlink = 10
let k_fs_lookup = 11
let k_fs_getattr = 12
let k_fs_setattr = 13
let k_fs_readdir = 14
let k_fs_create = 15
let k_fs_symlink = 16
let k_fs_link = 17
let k_fs_unlink = 18
let k_fs_rmdir = 19
let k_fs_rename = 20
let k_fs_readlink = 21
let k_fs_read = 22
let k_fs_write = 23

let category kind = if kind = k_request then "request" else if kind < k_fs_lookup then "syscall" else "fs"

(* Span ring: preallocated off-heap arrays indexed by span id modulo the
   capacity, so recording allocates nothing and leaves the live-heap
   metric untouched.  Ids are handed out in start order, so one request's
   spans occupy a contiguous id range. *)
let ring_cap = 1 lsl 17
let mask = ring_cap - 1
let mk () = A.create Bigarray.int Bigarray.c_layout ring_cap
let sp_kind = mk ()
let sp_parent = mk ()
let sp_t0 = mk ()
let sp_t1 = mk ()
let sp_dev = mk ()
let sp_vfs = mk ()
let next_id = ref 0
let cur_req = ref (-1)
let cur_sys = ref (-1)

(* Root ids of the last [keep_requests] requests, for the trace file. *)
let keep_requests = 10_000
let req_roots = Array.make keep_requests 0
let n_reqs = ref 0

let reset () =
  ops := 0;
  mutating_ops := 0;
  creating_opens := 0;
  fs_calls := 0;
  fs_lookups := 0;
  fs_readdirs := 0;
  fs_mutations := 0;
  sys_ns := 0;
  fs_real_ns := 0;
  next_id := 0;
  n_reqs := 0;
  cur_req := -1;
  cur_sys := -1

let open_span kind parent t0 =
  let id = !next_id in
  next_id := id + 1;
  let s = id land mask in
  A.unsafe_set sp_kind s kind;
  A.unsafe_set sp_parent s parent;
  A.unsafe_set sp_t0 s t0;
  A.unsafe_set sp_t1 s t0;
  A.unsafe_set sp_dev s (vns dev_clock);
  A.unsafe_set sp_vfs s (vns fs_clock);
  id

(* Stores the end time and turns the clock snapshots into deltas. *)
let close_span id t1 =
  let s = id land mask in
  A.unsafe_set sp_t1 s t1;
  A.unsafe_set sp_dev s (vns dev_clock - A.unsafe_get sp_dev s);
  A.unsafe_set sp_vfs s (vns fs_clock - A.unsafe_get sp_vfs s)

(* The request span reuses the runner's own timestamps, so the traced
   request time is measured exactly as the untraced one. *)
let req_open t0 =
  let id = open_span k_request (-1) t0 in
  req_roots.(!n_reqs mod keep_requests) <- id;
  incr n_reqs;
  cur_req := id

let req_close t1 =
  close_span !cur_req t1;
  cur_req := -1;
  cur_sys := -1

let[@inline] sys_enter kind =
  incr ops;
  if !traced then begin
    let id = open_span kind !cur_req (now ()) in
    cur_sys := id;
    id
  end
  else -1

let[@inline] sys_leave id =
  if id >= 0 then begin
    let t1 = now () in
    sys_ns := !sys_ns + t1 - A.unsafe_get sp_t0 (id land mask);
    close_span id t1;
    cur_sys := -1
  end

(* fs calls never nest (Extfs calls down into the page cache, not back
   into an Fs_intf.t), so one slot holds the open fs span. *)
let fs_t0 = ref 0
let fs_span = ref (-1)

let[@inline] fs_enter kind =
  incr fs_calls;
  if !traced then begin
    let t0 = now () in
    fs_t0 := t0;
    fs_span :=
      if !cur_req < 0 then -1
      else open_span kind (if !cur_sys >= 0 then !cur_sys else !cur_req) t0
  end

let[@inline] fs_leave () =
  if !traced then begin
    let t1 = now () in
    fs_real_ns := !fs_real_ns + (t1 - !fs_t0);
    if !fs_span >= 0 then begin
      close_span !fs_span t1;
      fs_span := -1
    end
  end

(* A request that raised leaves its spans open; forget them. *)
let abort () =
  cur_sys := -1;
  fs_span := -1

(* Counts and times every call into the low-level fs.  Placed under
   Fs_overhead, so its spans hold real fs work (Extfs, page cache, device
   model) and none of the virtual per-call charge. *)
let wrap_fs (fs : Fs.t) : Fs.t =
  let timed kind f =
    fs_enter kind;
    let r = f () in
    fs_leave ();
    r
  in
  {
    fs with
    lookup =
      (fun dir name ->
        incr fs_lookups;
        timed k_fs_lookup (fun () -> fs.lookup dir name));
    getattr = (fun ino -> timed k_fs_getattr (fun () -> fs.getattr ino));
    setattr =
      (fun ino changes ->
        incr fs_mutations;
        timed k_fs_setattr (fun () -> fs.setattr ino changes));
    readdir =
      (fun dir ->
        incr fs_readdirs;
        timed k_fs_readdir (fun () -> fs.readdir dir));
    create =
      (fun dir name kind mode ~uid ~gid ->
        incr fs_mutations;
        timed k_fs_create (fun () -> fs.create dir name kind mode ~uid ~gid));
    symlink =
      (fun dir name ~target ~uid ~gid ->
        incr fs_mutations;
        timed k_fs_symlink (fun () -> fs.symlink dir name ~target ~uid ~gid));
    link =
      (fun dir name ino ->
        incr fs_mutations;
        timed k_fs_link (fun () -> fs.link dir name ino));
    unlink =
      (fun dir name ->
        incr fs_mutations;
        timed k_fs_unlink (fun () -> fs.unlink dir name));
    rmdir =
      (fun dir name ->
        incr fs_mutations;
        timed k_fs_rmdir (fun () -> fs.rmdir dir name));
    rename =
      (fun od on nd nn ->
        incr fs_mutations;
        timed k_fs_rename (fun () -> fs.rename od on nd nn));
    readlink = (fun ino -> timed k_fs_readlink (fun () -> fs.readlink ino));
    read = (fun ino ~off ~len -> timed k_fs_read (fun () -> fs.read ino ~off ~len));
    write = (fun ino ~off data -> timed k_fs_write (fun () -> fs.write ino ~off data));
  }

(* Chrome-trace JSON ("X" complete events, microsecond timestamps) of the
   most recent whole requests still in the ring: at most [keep_requests],
   fewer when their spans overflowed the ring.  Each event carries its span
   id, parent id (-1 for a request) and the virtual device and fs-overhead
   nanoseconds charged inside it. *)
let write_chrome path =
  let total = !next_id in
  let oldest = max 0 (total - ring_cap) in
  let k = min !n_reqs keep_requests in
  let rec first j =
    if j >= !n_reqs then total
    else
      let root = req_roots.(j mod keep_requests) in
      if root >= oldest then root else first (j + 1)
  in
  let start = first (!n_reqs - k) in
  let base = if start < total then A.get sp_t0 (start land mask) else 0 in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
      for id = start to total - 1 do
        let s = id land mask in
        let kind = A.get sp_kind s in
        let t0 = A.get sp_t0 s and t1 = A.get sp_t1 s in
        let parent = A.get sp_parent s in
        Printf.fprintf oc
          "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
           \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"dev_ns\": %d, \"vfs_ns\": %d}}\n"
          (if id = start then "" else ",")
          (Json.escape names.(kind)) (Json.escape (category kind))
          (float_of_int (t0 - base) /. 1e3)
          (float_of_int (max 0 (t1 - t0)) /. 1e3)
          id parent (A.get sp_dev s) (A.get sp_vfs s)
      done;
      output_string oc "]}\n")
