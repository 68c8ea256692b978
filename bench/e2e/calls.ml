(* The Syscalls entry points the workloads issue, each inside a syscall
   span.  Written out one by one rather than through a higher-order helper
   so an untraced call allocates no closure. *)

module S = Dcache_syscalls.Syscalls
module P = Dcache_syscalls.Proc
module T = Tracer

let stat proc path =
  let s = T.sys_enter T.k_stat in
  let r = S.stat proc path in
  T.sys_leave s;
  r

let lstat proc path =
  let s = T.sys_enter T.k_lstat in
  let r = S.lstat proc path in
  T.sys_leave s;
  r

let access proc path mask =
  let s = T.sys_enter T.k_access in
  let r = S.access proc path mask in
  T.sys_leave s;
  r

let openf proc path flags =
  let s = T.sys_enter T.k_open in
  if List.mem P.O_CREAT flags then begin
    incr T.mutating_ops;
    incr T.creating_opens
  end;
  let r = S.openf proc path flags in
  T.sys_leave s;
  r

let read proc fd len =
  let s = T.sys_enter T.k_read in
  let r = S.read proc fd len in
  T.sys_leave s;
  r

let write proc fd data =
  let s = T.sys_enter T.k_write in
  let r = S.write proc fd data in
  T.sys_leave s;
  r

let close proc fd =
  let s = T.sys_enter T.k_close in
  let r = S.close proc fd in
  T.sys_leave s;
  r

(* [S.readdir_fill]: the whole listing into the process's dirent scratch.
   Raises [S.Readdir_errno] on failure, which fails the request. *)
let readdir proc fd =
  let s = T.sys_enter T.k_readdir in
  let n = S.readdir_fill proc fd in
  T.sys_leave s;
  n

let rename proc src dst =
  let s = T.sys_enter T.k_rename in
  incr T.mutating_ops;
  let r = S.rename proc src dst in
  T.sys_leave s;
  r

let unlink proc path =
  let s = T.sys_enter T.k_unlink in
  incr T.mutating_ops;
  let r = S.unlink proc path in
  T.sys_leave s;
  r
