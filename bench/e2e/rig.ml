(* The disk environment, assembled from the same pieces as
   [Dcache_workloads.Env.disk] with two additions that make each layer
   measurable at its public interface: the counting/timing fs wrapper under
   Fs_overhead, and separate virtual clocks for device time and for
   fs-overhead time. *)

module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module Vclock = Dcache_util.Vclock
module Blockdev = Dcache_storage.Blockdev
module Pagecache = Dcache_storage.Pagecache

type t = {
  kernel : Kernel.t;
  proc : Proc.t;
  device : Blockdev.t;
  pagecache : Pagecache.t;
  dev_clock : Vclock.t;
  fs_clock : Vclock.t;
}

(* 256 MB of 4 KB pages: every workload's tree stays resident, so timed
   phases are CPU-bound and any device read flags a regression. *)
let cache_pages = 65_536

let create () =
  let dev_clock = Vclock.create () in
  let fs_clock = Vclock.create () in
  let device = Blockdev.create dev_clock in
  let pagecache = Pagecache.create ~capacity_pages:cache_pages device in
  let fs = Dcache_fs.Extfs.mkfs_and_mount pagecache in
  let fs = Dcache_fs.Fs_overhead.wrap ~clock:fs_clock (Tracer.wrap_fs fs) in
  let kernel = Kernel.create ~config:Dcache_vfs.Config.optimized ~root_fs:fs () in
  Tracer.dev_clock := dev_clock;
  Tracer.fs_clock := fs_clock;
  (* A credential of the rig's own: Proc.spawn's default is shared by the
     whole program and keeps every dead kernel's PCC alive, which would
     grow live_heap_mb round after round. *)
  let proc = Proc.spawn ~cred:(Dcache_cred.Cred.root ()) kernel in
  { kernel; proc; device; pagecache; dev_clock; fs_clock }

let virtual_ns t =
  Int64.to_int (Vclock.elapsed_ns t.dev_clock) + Int64.to_int (Vclock.elapsed_ns t.fs_clock)
