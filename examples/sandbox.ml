(* Sandboxing demo: mount namespaces, bind mounts, chroot, and a MAC
   security module — the kernel features the paper's fastpath must stay
   compatible with (§4).

   A "service" process is confined to a private namespace with a read-only
   view of shared data, a private scratch mount, a chroot, and an
   SELinux-style label policy; the demo shows that its view and the host's
   view diverge exactly as intended, while both enjoy cached lookups.

   Run with: dune exec examples/sandbox.exe *)

module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module S = Dcache_syscalls.Syscalls
module Config = Dcache_vfs.Config
module Cred = Dcache_cred.Cred
module Maclabel = Dcache_cred.Maclabel
open Dcache_types

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Errno.to_string e))

(* A violated isolation property fails the run. *)
let bug msg =
  print_endline msg;
  exit 1

let show proc label path =
  match S.read_file proc path with
  | Ok contents -> Printf.printf "  [%s] %-28s -> %S\n" label path contents
  | Error e -> Printf.printf "  [%s] %-28s -> %s\n" label path (Errno.to_string e)

let () =
  (* MAC policy: the service domain may only read service-labeled files. *)
  let policy =
    [
      { Maclabel.domain = "service_t"; label = "service_data"; allow = Access.may_read };
      { Maclabel.domain = "service_t"; label = "service_exec";
        allow = Access.union Access.may_read Access.may_exec };
    ]
  in
  let kernel =
    Kernel.create ~config:Config.optimized
      ~lsms:[ Maclabel.hooks ~rules:policy ]
      ~root_fs:(Dcache_fs.Ramfs.create ()) ()
  in
  let host = Proc.spawn kernel in

  (* Host filesystem layout. *)
  ok "tree" (S.mkdir_p host "/srv/jail/data");
  ok "tree" (S.mkdir_p host "/srv/shared");
  ok "etc" (S.mkdir_p host "/etc");
  ok "secrets" (S.write_file host "/etc/shadow" "root:secret-hash");
  ok "shared" (S.write_file host "/srv/shared/motd" "welcome to the host");
  ok "svc data" (S.write_file host "/srv/jail/data/config" "service config v1");
  ok "label" (S.set_label host "/srv/jail/data/config" (Some "service_data"));
  ok "mode" (S.chmod host "/srv/shared/motd" 0o644);

  (* Confine the service: private namespace, read-only bind of the shared
     area into the jail, then chroot into it. *)
  let service = Proc.fork host in
  ok "unshare" (S.unshare_mount_ns service);
  ok "mountpoint" (S.mkdir_p service "/srv/jail/shared");
  ok "bind ro" (S.bind_mount ~readonly:true service ~src:"/srv/shared" ~dst:"/srv/jail/shared");
  ok "chroot" (S.chroot service "/srv/jail");
  ok "chdir" (S.chdir service "/");
  Proc.set_cred service (fun b ->
      Cred.Builder.set_uid b 8001;
      Cred.Builder.set_gid b 8001;
      Cred.Builder.set_label b (Some "service_t"));

  print_endline "host view:";
  show host "host" "/etc/shadow";
  show host "host" "/srv/shared/motd";
  show host "host" "/srv/jail/data/config";

  print_endline "service view (chrooted, labeled, private namespace):";
  show service "svc" "/data/config";
  show service "svc" "/shared/motd";
  show service "svc" "/etc/shadow";
  (* chroot confines even dot-dot escapes *)
  show service "svc" "/../../etc/shadow";

  print_endline "write attempts from the service:";
  (match S.write_file service "/shared/defaced" "oops" with
  | Error Errno.EROFS -> print_endline "  read-only bind mount: EROFS (good)"
  | Error e -> bug ("  BUG: unexpected " ^ Errno.to_string e)
  | Ok () -> bug "  BUG: write succeeded");

  (* The MAC module vetoes access to unlabeled-for-service files even when
     DAC would allow them. *)
  ok "plant" (S.write_file host "/srv/jail/data/host-note" "host-only note");
  ok "mode" (S.chmod host "/srv/jail/data/host-note" 0o444);
  ok "label" (S.set_label host "/srv/jail/data/host-note" (Some "host_private"));
  (match S.read_file service "/data/host-note" with
  | Error Errno.EACCES -> print_endline "  MAC label veto: EACCES (good)"
  | Error e -> bug ("  BUG: unexpected " ^ Errno.to_string e)
  | Ok _ -> bug "  BUG: MAC bypassed");

  (* Meanwhile the host namespace never saw the service's mounts. *)
  (match S.stat host "/srv/jail/shared/motd" with
  | Error Errno.ENOENT -> print_endline "host cannot see the service's private bind mount (good)"
  | _ -> bug "BUG: mount leaked across namespaces");

  (* All of this ran with the fastpath on; show it was actually used. *)
  let stats = Kernel.stats_snapshot kernel in
  Printf.printf "fastpath hits during the demo: %d\n"
    (try List.assoc "fastpath_hit" stats with Not_found -> 0)
