open Dcache_types
open Types
module Inttbl = Dcache_util.Inttbl

let next_mnt_id = Atomic.make 1
let next_ns_id = Atomic.make 1

let new_namespace () =
  {
    ns_id = Atomic.fetch_and_add next_ns_id 1;
    ns_root = None;
    ns_mounts = [];
    ns_mountpoints = Inttbl.create 16;
    ns_ext = None;
  }

let register ns mount =
  ns.ns_mounts <- mount :: ns.ns_mounts;
  match mount.mnt_mountpoint with
  | Some (_, dentry) ->
    let at = Option.value (Inttbl.find_opt ns.ns_mountpoints dentry.d_id) ~default:[] in
    Inttbl.replace ns.ns_mountpoints dentry.d_id (mount :: at)
  | None -> ()

let mount_rootfs ns sb =
  let root_dentry = Dcache.sb_root sb in
  let mount =
    {
      mnt_id = Atomic.fetch_and_add next_mnt_id 1;
      mnt_sb = sb;
      mnt_root = root_dentry;
      mnt_mountpoint = None;
      mnt_ns = ns;
      mnt_readonly = false;
      mnt_nosuid = false;
    }
  in
  Dcache.dget root_dentry;
  ns.ns_root <- Some mount;
  register ns mount;
  mount

let root ns =
  match ns.ns_root with
  | Some mnt -> { mnt; dentry = mnt.mnt_root }
  | None -> invalid_arg "Mount.root: namespace has no root file system"

let rec attached_at mnt dentry = function
  | [] -> None
  | m :: rest -> (
    match m.mnt_mountpoint with
    | Some (parent, d) when parent == mnt && d == dentry -> Some m
    | Some _ | None -> attached_at mnt dentry rest)

(* [traverse_mounts] asks this on every walk component; the table is keyed
   by the dentry id alone, so a dentry nothing is mounted on costs one int
   probe and allocates nothing. *)
let mount_lookup ns mnt dentry =
  match Inttbl.find_opt ns.ns_mountpoints dentry.d_id with
  | None -> None
  | Some at -> attached_at mnt dentry at

let is_mountpoint ns mnt dentry = mount_lookup ns mnt dentry <> None

let attach ns ~at ~root ~sb ~readonly ~nosuid =
  if not (dentry_is_dir at.dentry) then Error Errno.ENOTDIR
  else if not (dentry_is_dir root) then Error Errno.ENOTDIR
  else if is_mountpoint ns at.mnt at.dentry then Error Errno.EBUSY
  else begin
    let mount =
      {
        mnt_id = Atomic.fetch_and_add next_mnt_id 1;
        mnt_sb = sb;
        mnt_root = root;
        mnt_mountpoint = Some (at.mnt, at.dentry);
        mnt_ns = ns;
        mnt_readonly = readonly;
        mnt_nosuid = nosuid;
      }
    in
    Dcache.dget at.dentry;
    Dcache.dget root;
    register ns mount;
    Ok mount
  end

let detach ns mount =
  match mount.mnt_mountpoint with
  | None -> Error Errno.EBUSY (* the root fs cannot be unmounted *)
  | Some (_, dentry) ->
    let stacked =
      List.exists
        (fun child ->
          match child.mnt_mountpoint with Some (parent, _) -> parent == mount | None -> false)
        ns.ns_mounts
    in
    if stacked then Error Errno.EBUSY
    else begin
      (match
         List.filter (fun m -> m != mount)
           (Option.value (Inttbl.find_opt ns.ns_mountpoints dentry.d_id) ~default:[])
       with
      | [] -> Inttbl.remove ns.ns_mountpoints dentry.d_id
      | rest -> Inttbl.replace ns.ns_mountpoints dentry.d_id rest);
      ns.ns_mounts <- List.filter (fun m -> not (m == mount)) ns.ns_mounts;
      Dcache.dput dentry;
      Dcache.dput mount.mnt_root;
      Ok ()
    end

let rec traverse_mounts path_ref =
  match mount_lookup path_ref.mnt.mnt_ns path_ref.mnt path_ref.dentry with
  | Some mounted -> traverse_mounts { mnt = mounted; dentry = mounted.mnt_root }
  | None -> path_ref

let follow_up path_ref =
  if path_ref.dentry == path_ref.mnt.mnt_root then
    match path_ref.mnt.mnt_mountpoint with
    | Some (parent_mnt, mountpoint) -> Some { mnt = parent_mnt; dentry = mountpoint }
    | None -> None
  else None

let clone_namespace old_ns =
  let ns = new_namespace () in
  (* Rebuild mounts parent-first so mountpoint references can be remapped to
     the new mount objects. *)
  let mapping = Inttbl.create 16 in
  let rec instantiate old_mount =
    match Inttbl.find_opt mapping old_mount.mnt_id with
    | Some m -> m
    | None ->
      let mountpoint =
        match old_mount.mnt_mountpoint with
        | None -> None
        | Some (parent, dentry) -> Some (instantiate parent, dentry)
      in
      let mount =
        {
          mnt_id = Atomic.fetch_and_add next_mnt_id 1;
          mnt_sb = old_mount.mnt_sb;
          mnt_root = old_mount.mnt_root;
          mnt_mountpoint = mountpoint;
          mnt_ns = ns;
          mnt_readonly = old_mount.mnt_readonly;
          mnt_nosuid = old_mount.mnt_nosuid;
        }
      in
      Inttbl.add mapping old_mount.mnt_id mount;
      Dcache.dget mount.mnt_root;
      (match mount.mnt_mountpoint with Some (_, d) -> Dcache.dget d | None -> ());
      register ns mount;
      mount
  in
  List.iter (fun m -> ignore (instantiate m)) (List.rev old_ns.ns_mounts);
  (match old_ns.ns_root with
  | Some old_root -> ns.ns_root <- Some (instantiate old_root)
  | None -> ());
  ns
