(** Vectored submission/completion front-end (§3.9).

    A preallocated SQ/CQ ring pair over a process: callers enqueue up to
    [cap] stat probes, call {!submit}, and read completions back out of
    the CQ arrays.  Everything on the warm path —
    the per-op closures, the walk context, the result slots — is allocated
    once at {!create}; a warm all-hit submit performs {e zero} minor-heap
    allocation and zero rwlock acquisitions, and shares one seqcount
    validation window, one span mint and one lease-gate consult across the
    whole run (see {!Dcache_core.Fastpath.probe_batch}). *)

open Dcache_types
open Dcache_vfs.Types
module Walk = Dcache_vfs.Walk
module Dcache = Dcache_vfs.Dcache
module Inode = Dcache_vfs.Inode
module Fastpath = Dcache_core.Fastpath
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters
module Trace = Dcache_util.Trace

type state = {
  proc : Proc.t;
  cap : int;
  (* submission ring, filled by [push_stat] *)
  sq_path : string array;
  mutable sq_n : int;
  (* cursor: index of the op the fastpath is currently probing; [prepare]
     advances it so the shared [within] closure knows which op it serves *)
  mutable cur : int;
  (* completion ring *)
  cq_ok : bool array;
  cq_err : Errno.t array;
  cq_attr : Attr.t array;
  (* Table 1's byte and component tallies of the ops completed so far in
     this submission, added to the counters once per submit *)
  mutable path_bytes : int;
  mutable path_comps : int;
  (* phase-2 scratch for {!Fastpath.probe_batch} *)
  deferred : int array;
  (* cached walk context, revalidated by physical equality each submit *)
  mutable ctx : Walk.ctx;
}

type t = {
  s : state;
  (* the four hooks handed to [probe_batch], allocated once here so a warm
     submit closes over nothing *)
  path_of : int -> string;
  prepare : int -> unit;
  within : mount -> dentry -> (unit, Errno.t) result;
  complete : int -> (unit, Errno.t) result -> unit;
}

let ok_unit : (unit, Errno.t) result = Ok ()

(* Mirror of [Syscalls.stat_attr]: positive → attr, anything
   still cached short of positive → ENOENT.  No promotion — exactly what
   the sequential stat does. *)
let stat_within s mnt dentry =
  ignore (mnt : mount);
  match dentry.d_state with
  | Positive inode ->
    s.cq_attr.(s.cur) <- Inode.attr inode;
    ok_unit
  | Partial _ | Negative _ -> Errno.to_error Errno.ENOENT

let create ?(cap = 128) proc =
  if cap <= 0 then invalid_arg "Batch.create: cap must be positive";
  let filler_attr =
    match (Kernel.root proc.Proc.kernel).dentry.d_state with
    | Positive inode -> Inode.attr inode
    | Partial _ | Negative _ -> assert false
  in
  let s =
    {
      proc;
      cap;
      sq_path = Array.make cap "";
      sq_n = 0;
      cur = 0;
      cq_ok = Array.make cap false;
      cq_err = Array.make cap Errno.ENOENT;
      cq_attr = Array.make cap filler_attr;
      path_bytes = 0;
      path_comps = 0;
      deferred = Array.make cap 0;
      ctx = Proc.walk_ctx proc;
    }
  in
  {
    s;
    path_of = (fun i -> s.sq_path.(i));
    prepare = (fun i -> s.cur <- i);
    within = (fun mnt dentry -> stat_within s mnt dentry);
    complete =
      (fun i r ->
        (* Table 1's statistics, as the sequential front-end counts
           them: the op's own probe scan supplies the components. *)
        let path = s.sq_path.(i) in
        s.path_bytes <- s.path_bytes + String.length path;
        s.path_comps <- s.path_comps + Fastpath.path_components path;
        match r with
        | Ok () -> s.cq_ok.(i) <- true
        | Error e ->
          s.cq_ok.(i) <- false;
          s.cq_err.(i) <- e);
  }

let reset t = t.s.sq_n <- 0

let push_stat t path =
  let s = t.s in
  if s.sq_n >= s.cap then -1
  else begin
    let slot = s.sq_n in
    s.sq_path.(slot) <- path;
    s.sq_n <- slot + 1;
    slot
  end

(* The cached context goes stale when the process changes credentials,
   chroots, chdirs or switches namespace — all rare next to submits, all
   observable by physical equality on the record fields (Proc mutators
   replace, never mutate in place). *)
let ctx_fresh s =
  let c = s.ctx in
  c.Walk.cred == s.proc.Proc.cred
  && c.Walk.root == s.proc.Proc.root
  && c.Walk.cwd == s.proc.Proc.cwd
  && c.Walk.ns == s.proc.Proc.ns

let submit t =
  let s = t.s in
  let n = s.sq_n in
  if n > 0 then begin
    let cs = Kernel.counters s.proc.Proc.kernel in
    Counter.bump cs Counters.batch_submit;
    Counter.add cs Counters.batch_ops n;
    Counter.add cs Counters.path_lookup n;
    s.path_bytes <- 0;
    s.path_comps <- 0;
    (* One span mint for the whole submission (§3.8): every op's stamps
       ride the same request-scoped span. *)
    let span = Trace.span_enter () in
    if span <> 0 then Trace.stamp_span span Trace.ev_batch_submit n;
    if not (ctx_fresh s) then s.ctx <- Proc.walk_ctx s.proc;
    Counter.add cs Counters.batch_windows
      (Fastpath.probe_batch
         (Kernel.fastpath s.proc.Proc.kernel)
         s.ctx ~n ~path:t.path_of ~flags:Walk.default_flags ~prepare:t.prepare ~within:t.within
         ~complete:t.complete ~deferred:s.deferred);
    Counter.add cs Counters.path_bytes s.path_bytes;
    Counter.add cs Counters.path_comps s.path_comps
  end

let submitted t i =
  if i < 0 || i >= t.s.sq_n then invalid_arg "Batch: slot out of range"

let ok t i =
  submitted t i;
  t.s.cq_ok.(i)

let errno t i =
  submitted t i;
  t.s.cq_err.(i)

let attr t i =
  submitted t i;
  t.s.cq_attr.(i)
