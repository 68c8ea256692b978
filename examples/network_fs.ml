(* Network file systems and the fastpath (paper §4.3).

   The paper's prototype cannot use direct lookup over NFS v2/3: stateless
   close-to-open consistency forces the client to revalidate every path
   component at the server, "effectively forcing a cache miss and nullifying
   any benefit to the hit path".  It predicts the optimizations would pay
   off under a stateful protocol with callbacks (AFS, NFSv4.1).  This demo
   mounts both client flavours against the same server and shows exactly
   that — including a staleness callback keeping the stateful client
   coherent with an external writer.

   Run with: dune exec examples/network_fs.exe *)

module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module S = Dcache_syscalls.Syscalls
module Config = Dcache_vfs.Config
module Netfs = Dcache_fs.Netfs
module Fs = Dcache_fs.Fs_intf
module Vclock = Dcache_util.Vclock

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Dcache_types.Errno.to_string e)

let demo protocol label =
  let clock = Vclock.create () in
  let backing = Dcache_fs.Ramfs.create () in
  let server = Netfs.server ~rpc_latency_ns:120_000 ~clock backing in
  let client, fs = Netfs.connect_fs ~protocol server in
  let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn kernel in
  ok "tree" (S.mkdir_p p "/export/project/src");
  ok "file" (S.write_file p "/export/project/src/main.ml" "let () = ()");
  ignore (ok "warm" (S.stat p "/export/project/src/main.ml"));
  Netfs.reset_rpc_count server;
  Vclock.reset clock;
  let n = 100 in
  for _ = 1 to n do
    ignore (ok "stat" (S.stat p "/export/project/src/main.ml"))
  done;
  let stats = Kernel.stats_snapshot kernel in
  let get key = try List.assoc key stats with Not_found -> 0 in
  Printf.printf "[%s] %d warm stats: %d RPCs, %.1f us simulated network time/op, %d fastpath hits\n"
    label n (Netfs.rpc_count server)
    (Int64.to_float (Vclock.elapsed_ns clock) /. float_of_int n /. 1000.0)
    (get "fastpath_hit");
  (p, server, client, backing)

let () =
  print_endline "Stateless protocol (NFS v2/3 model): every cached component revalidates.";
  ignore (demo Netfs.Stateless "stateless");
  print_endline "\nStateful protocol (AFS/NFSv4.1 model): cached dentries are trusted.";
  let p, server, client, backing = demo Netfs.Stateful "stateful " in
  (* An external writer changes the server; breaking this client's lease on
     the directory keeps us coherent. *)
  Netfs.set_invalidate client (fun _ -> ok "cb" (S.invalidate_path p "/export/project/src"));
  let root = backing.Fs.root_ino in
  let export = ok "lookup" (backing.Fs.lookup root "export") in
  let project = ok "lookup" (backing.Fs.lookup export.Dcache_types.Attr.ino "project") in
  let src = ok "lookup" (backing.Fs.lookup project.Dcache_types.Attr.ino "src") in
  ignore
    (ok "server-side create"
       (backing.Fs.create src.Dcache_types.Attr.ino "hotfix.ml" Dcache_types.File_kind.Regular
          0o644 ~uid:0 ~gid:0));
  Netfs.break_callback server src.Dcache_types.Attr.ino;
  (match S.stat p "/export/project/src/hotfix.ml" with
  | Ok _ -> print_endline "\nafter the callback, the external hotfix.ml is visible (good)"
  | Error e ->
    Printf.printf "\nBUG: %s\n" (Dcache_types.Errno.to_string e);
    exit 1)
