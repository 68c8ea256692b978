open Dcache_types
open Fs_intf
module Pagecache = Dcache_storage.Pagecache
module Inttbl = Dcache_util.Inttbl

let magic = 0x45585453 (* "EXTS" *)
let inode_size = 128
let max_name_len = 255
let max_label_len = 32
let direct_pointers = 12

(* Little-endian accessors over cached pages. *)
let get32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let set32 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

(* Unchecked loads for the dirent scan, which bounds every record first. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"

let set16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let kind_to_byte = function
  | File_kind.Regular -> 1
  | File_kind.Directory -> 2
  | File_kind.Symlink -> 3
  | File_kind.Chardev -> 4
  | File_kind.Blockdev -> 5
  | File_kind.Fifo -> 6
  | File_kind.Socket -> 7

let kind_of_byte = function
  | 1 -> Some File_kind.Regular
  | 2 -> Some File_kind.Directory
  | 3 -> Some File_kind.Symlink
  | 4 -> Some File_kind.Chardev
  | 5 -> Some File_kind.Blockdev
  | 6 -> Some File_kind.Fifo
  | 7 -> Some File_kind.Socket
  | _ -> None

(* Superblock layout (block 0):
   0: magic | 4: block_count | 8: inode_count | 12: inode_bitmap_start
   16: inode_bitmap_blocks | 20: block_bitmap_start | 24: block_bitmap_blocks
   28: itable_start | 32: itable_blocks | 36: data_start | 40: root_ino *)
type geometry = {
  block_size : int;
  block_count : int;
  inode_count : int;
  inode_bitmap_start : int;
  block_bitmap_start : int;
  itable_start : int;
  data_start : int;
}

(* On-disk inode layout (128 bytes):
   0: kind (0 = free) | 1: label_len | 2-3: mode | 4-7: uid | 8-11: gid
   12-15: nlink | 16-19: size | 20-23: (reserved)
   24-71: direct[12] | 72-75: indirect | 76-107: label *)
type dinode = {
  kind : File_kind.t;
  mode : Mode.t;
  uid : int;
  gid : int;
  nlink : int;
  size : int;
  direct : int array;
  indirect : int;
  label : string option;
}

type state = {
  cache : Pagecache.t;
  geo : geometry;
  pins : int Inttbl.t;  (* in-memory VFS references per inode *)
  mutable inode_hint : int;  (* next-free search cursors, like ext4's *)
  mutable block_hint : int;
}

let geometry_of_device cache =
  let block_size = Pagecache.block_size cache in
  (* This is only used from mkfs/mount on a device we control. *)
  block_size

let compute_geometry cache block_count =
  let block_size = geometry_of_device cache in
  let inode_count = Int.max 64 (block_count / 4) in
  let bits_per_block = block_size * 8 in
  let inode_bitmap_blocks = (inode_count + bits_per_block - 1) / bits_per_block in
  let block_bitmap_blocks = (block_count + bits_per_block - 1) / bits_per_block in
  let inodes_per_block = block_size / inode_size in
  let itable_blocks = (inode_count + inodes_per_block - 1) / inodes_per_block in
  let inode_bitmap_start = 1 in
  let block_bitmap_start = inode_bitmap_start + inode_bitmap_blocks in
  let itable_start = block_bitmap_start + block_bitmap_blocks in
  let data_start = itable_start + itable_blocks in
  { block_size; block_count; inode_count; inode_bitmap_start; block_bitmap_start;
    itable_start; data_start }

(* --- bitmaps --- *)

let bitmap_set st ~start bit value =
  let bits_per_block = st.geo.block_size * 8 in
  let block = start + (bit / bits_per_block) in
  let idx = bit mod bits_per_block in
  Pagecache.with_page_mut st.cache block (fun b ->
      let byte = Char.code (Bytes.get b (idx / 8)) in
      let mask = 1 lsl (idx mod 8) in
      let byte = if value then byte lor mask else byte land lnot mask in
      Bytes.set b (idx / 8) (Char.chr byte))

(* Scan for a clear bit starting at [hint]; wraps around once.  The hint
   plus early exit keep allocation O(1) amortized, like real allocators. *)
let bitmap_find_free st ~start ~count ~hint =
  let bits_per_block = st.geo.block_size * 8 in
  let blocks = (count + bits_per_block - 1) / bits_per_block in
  let found = ref None in
  let scan_block blk ~from_bit =
    Pagecache.with_page st.cache (start + blk) (fun b ->
        let base = blk * bits_per_block in
        try
          for i = from_bit / 8 to st.geo.block_size - 1 do
            let byte = Char.code (Bytes.get b i) in
            if byte <> 0xff then
              for bit = 0 to 7 do
                let global = base + (i * 8) + bit in
                if global < count && byte land (1 lsl bit) = 0 then begin
                  found := Some global;
                  raise Exit
                end
              done
          done
        with Exit -> ())
  in
  let hint = if hint >= 0 && hint < count then hint else 0 in
  let first_block = hint / bits_per_block in
  (try
     scan_block first_block ~from_bit:(hint mod bits_per_block);
     if !found <> None then raise Exit;
     for blk = first_block + 1 to blocks - 1 do
       scan_block blk ~from_bit:0;
       if !found <> None then raise Exit
     done;
     for blk = 0 to first_block do
       scan_block blk ~from_bit:0;
       if !found <> None then raise Exit
     done
   with Exit -> ());
  !found

(* --- inode table --- *)

let inode_location st ino =
  let index = ino - 1 in
  let inodes_per_block = st.geo.block_size / inode_size in
  let block = st.geo.itable_start + (index / inodes_per_block) in
  let offset = index mod inodes_per_block * inode_size in
  (block, offset)

let label_at b off =
  let label_len = Char.code (Bytes.get b (off + 1)) in
  if label_len = 0 then None else Some (Bytes.sub_string b (off + 76) label_len)

let read_dinode st ino =
  if ino < 1 || ino > st.geo.inode_count then Error Errno.EIO
  else begin
    let block, off = inode_location st ino in
    Pagecache.with_page st.cache block (fun b ->
        match kind_of_byte (Char.code (Bytes.get b off)) with
        | None -> Error Errno.EIO
        | Some kind ->
          let direct = Array.init direct_pointers (fun i -> get32 b (off + 24 + (i * 4))) in
          Ok
            {
              kind;
              mode = get16 b (off + 2);
              uid = get32 b (off + 4);
              gid = get32 b (off + 8);
              nlink = get32 b (off + 12);
              size = get32 b (off + 16);
              direct;
              indirect = get32 b (off + 72);
              label = label_at b off;
            })
  end

(* [read_dinode]'s attribute fields alone, without the block map: what a
   getattr or a lookup returns. *)
let read_attr st ino =
  if ino < 1 || ino > st.geo.inode_count then Error Errno.EIO
  else begin
    let block, off = inode_location st ino in
    Pagecache.with_page st.cache block (fun b ->
        match kind_of_byte (Char.code (Bytes.get b off)) with
        | None -> Error Errno.EIO
        | Some kind ->
          Ok
            {
              Attr.ino;
              kind;
              mode = get16 b (off + 2);
              uid = get32 b (off + 4);
              gid = get32 b (off + 8);
              nlink = get32 b (off + 12);
              size = get32 b (off + 16);
              label = label_at b off;
            })
  end

let write_dinode st ino dinode =
  let block, off = inode_location st ino in
  Pagecache.with_page_mut st.cache block (fun b ->
      Bytes.set b off (Char.chr (kind_to_byte dinode.kind));
      let label = Option.value dinode.label ~default:"" in
      let label_len = Int.min max_label_len (String.length label) in
      Bytes.set b (off + 1) (Char.chr label_len);
      set16 b (off + 2) (dinode.mode land 0xffff);
      set32 b (off + 4) dinode.uid;
      set32 b (off + 8) dinode.gid;
      set32 b (off + 12) dinode.nlink;
      set32 b (off + 16) dinode.size;
      Array.iteri (fun i ptr -> set32 b (off + 24 + (i * 4)) ptr) dinode.direct;
      set32 b (off + 72) dinode.indirect;
      Bytes.fill b (off + 76) max_label_len '\000';
      Bytes.blit_string label 0 b (off + 76) label_len)

let clear_dinode st ino =
  let block, off = inode_location st ino in
  Pagecache.with_page_mut st.cache block (fun b ->
      Bytes.fill b off inode_size '\000')

let attr_of_dinode ino d =
  { Attr.ino; kind = d.kind; mode = d.mode; uid = d.uid; gid = d.gid; nlink = d.nlink;
    size = d.size; label = d.label }

(* --- allocation --- *)

let alloc_inode st =
  match
    bitmap_find_free st ~start:st.geo.inode_bitmap_start ~count:st.geo.inode_count
      ~hint:st.inode_hint
  with
  | None -> Error Errno.ENOSPC
  | Some index ->
    bitmap_set st ~start:st.geo.inode_bitmap_start index true;
    st.inode_hint <- index + 1;
    Ok (index + 1)

let free_inode st ino =
  bitmap_set st ~start:st.geo.inode_bitmap_start (ino - 1) false;
  if ino - 1 < st.inode_hint then st.inode_hint <- ino - 1;
  clear_dinode st ino

let alloc_block st =
  let data_blocks = st.geo.block_count - st.geo.data_start in
  match
    bitmap_find_free st ~start:st.geo.block_bitmap_start ~count:data_blocks
      ~hint:st.block_hint
  with
  | None -> Error Errno.ENOSPC
  | Some index ->
    bitmap_set st ~start:st.geo.block_bitmap_start index true;
    st.block_hint <- index + 1;
    let block = st.geo.data_start + index in
    Pagecache.with_page_mut st.cache block (fun b -> Bytes.fill b 0 st.geo.block_size '\000');
    Ok block

let free_block st block =
  let index = block - st.geo.data_start in
  bitmap_set st ~start:st.geo.block_bitmap_start index false;
  if index < st.block_hint then st.block_hint <- index

(* --- file block mapping --- *)

let pointers_per_block st = st.geo.block_size / 4

(** [block_for st dinode index ~alloc] maps logical block [index] of a file
    to a device block.  With [alloc], missing blocks (and the indirect block)
    are allocated and the possibly-updated dinode is returned. *)
let block_for st dinode index ~alloc =
  if index < direct_pointers then begin
    let ptr = dinode.direct.(index) in
    if ptr <> 0 then Ok (ptr, dinode)
    else if not alloc then Ok (0, dinode)
    else begin
      let* block = alloc_block st in
      let direct = Array.copy dinode.direct in
      direct.(index) <- block;
      Ok (block, { dinode with direct })
    end
  end
  else begin
    let slot = index - direct_pointers in
    if slot >= pointers_per_block st then Error Errno.ENOSPC
    else begin
      let* indirect_block, dinode =
        if dinode.indirect <> 0 then Ok (dinode.indirect, dinode)
        else if not alloc then Ok (0, dinode)
        else begin
          let* block = alloc_block st in
          Ok (block, { dinode with indirect = block })
        end
      in
      if indirect_block = 0 then Ok (0, dinode)
      else begin
        let ptr =
          Pagecache.with_page st.cache indirect_block (fun b -> get32 b (slot * 4))
        in
        if ptr <> 0 then Ok (ptr, dinode)
        else if not alloc then Ok (0, dinode)
        else begin
          let* block = alloc_block st in
          Pagecache.with_page_mut st.cache indirect_block (fun b -> set32 b (slot * 4) block);
          Ok (block, dinode)
        end
      end
    end
  end

let iter_file_blocks st dinode f =
  for i = 0 to direct_pointers - 1 do
    if dinode.direct.(i) <> 0 then f dinode.direct.(i)
  done;
  if dinode.indirect <> 0 then begin
    let ptrs =
      Pagecache.with_page st.cache dinode.indirect (fun b ->
          List.init (pointers_per_block st) (fun i -> get32 b (i * 4)))
    in
    List.iter (fun ptr -> if ptr <> 0 then f ptr) ptrs;
    f dinode.indirect
  end

let free_file_blocks st dinode = iter_file_blocks st dinode (free_block st)

(* --- directory entries ---

   A directory's data blocks hold packed records; scanning stops at a zero
   namelen byte (the block tail is kept zeroed).  Tombstones have ino = 0 but
   keep their namelen so the scan can skip them. *)

let dirent_header = 6

let dir_blocks dinode =
  Array.to_list (Array.sub dinode.direct 0 direct_pointers)
  |> List.filter (fun b -> b <> 0)

(** Scan one directory block; [f] gets each live record and may short-circuit
    by returning [Some _]. *)
let scan_block st block f =
  Pagecache.with_page st.cache block (fun b ->
      let size = st.geo.block_size in
      let rec go off =
        if off + dirent_header > size then None
        else begin
          let namelen = Char.code (Bytes.get b (off + 5)) in
          if namelen = 0 then None
          else begin
            let ino = get32 b off in
            let kind = kind_of_byte (Char.code (Bytes.get b (off + 4))) in
            let record_len = dirent_header + namelen in
            if off + record_len > size then None
            else begin
              let result =
                if ino = 0 then None
                else begin
                  match kind with
                  | None -> None
                  | Some kind ->
                    let name = Bytes.sub_string b (off + dirent_header) namelen in
                    f ~block ~off ~ino ~kind ~name
                end
              in
              match result with Some _ as r -> r | None -> go (off + record_len)
            end
          end
        end
      in
      go 0)

let list_entries st dinode =
  let acc = ref [] in
  List.iter
    (fun block ->
      ignore
        (scan_block st block (fun ~block:_ ~off:_ ~ino ~kind ~name ->
             acc := { name; ino; kind } :: !acc;
             None)))
    (dir_blocks dinode);
  List.rev !acc

(* Whether no block holds a live record: stops at the first one. *)
let dir_is_empty st dinode =
  List.for_all
    (fun block ->
      Option.is_none
        (scan_block st block (fun ~block:_ ~off:_ ~ino:_ ~kind:_ ~name:_ -> Some ())))
    (dir_blocks dinode)

(* Whether the [String.length name - i] bytes of [b] at [off + i] spell the
   rest of [name]: eight bytes a step, the last [< 8] singly.  Two words are
   equal in either byte order, so the host's does not matter. *)
let rec tail_at b off name i =
  i >= String.length name
  || Char.equal (Bytes.unsafe_get b (off + i)) (String.unsafe_get name i)
     && tail_at b off name (i + 1)

let rec name_at b off name i =
  if i + 8 > String.length name then tail_at b off name i
  else (get64u b (off + i) : int64) = string_get64u name i && name_at b off name (i + 8)

(* A live record one scan found, or block 0 (never a directory block) when
   it found none. *)
type found = {
  mutable f_block : int;
  mutable f_off : int;
  mutable f_ino : int;
  mutable f_kind : File_kind.t;
}

(* One pass over a directory's blocks, in block order, finds the first live
   record named [src_name], the first live record named [dst_name], and the
   first slot for a record of [fit] bytes once those two are tombstoned: an
   exact-size tombstone (either found record counts) or zeroed tail space.
   An empty name or a zero [fit] asks for nothing; the pass stops once it
   has everything asked for.  The state is ints, so nothing is compared
   polymorphically. *)
type scan = {
  src_name : string;
  dst_name : string;
  fit : int;
  limit : int;  (* the block size *)
  mutable block : int;  (* the block being read *)
  src : found;
  dst : found;
  mutable slot_block : int;  (* 0: no room, a new block is needed *)
  mutable slot_off : int;
}

let[@inline] finished s =
  (String.length s.src_name = 0 || s.src.f_block <> 0)
  && (String.length s.dst_name = 0 || s.dst.f_block <> 0)
  && (s.fit = 0 || s.slot_block <> 0)

let[@inline] slot_at s off =
  if s.fit > 0 && s.slot_block = 0 then begin
    s.slot_block <- s.block;
    s.slot_off <- off
  end

let found_at s f b off kind =
  f.f_block <- s.block;
  f.f_off <- off;
  f.f_ino <- get32 b off;
  f.f_kind <- kind

let rec scan_records s b off =
  if off + dirent_header <= s.limit then begin
    let len = Char.code (Bytes.unsafe_get b (off + 5)) in
    if len = 0 then begin if off + s.fit <= s.limit then slot_at s off end
    else if off + dirent_header + len <= s.limit then begin
      let record = dirent_header + len in
      if (get32u b off : int32) = 0l then begin if record = s.fit then slot_at s off end
      else begin
        let name = off + dirent_header in
        let is_src =
          s.src.f_block = 0 && len = String.length s.src_name && name_at b name s.src_name 0
        in
        let is_dst =
          s.dst.f_block = 0 && len = String.length s.dst_name && name_at b name s.dst_name 0
        in
        if is_src || is_dst then
          match kind_of_byte (Char.code (Bytes.unsafe_get b (off + 4))) with
          | None -> ()
          | Some kind ->
            if is_src then found_at s s.src b off kind;
            if is_dst then found_at s s.dst b off kind;
            if record = s.fit then slot_at s off
      end;
      if not (finished s) then scan_records s b (off + record)
    end
  end

let rec scan_blocks st dinode s read i =
  if i < direct_pointers && not (finished s) then begin
    let block = dinode.direct.(i) in
    if block <> 0 then begin
      s.block <- block;
      Pagecache.with_page st.cache block read
    end;
    scan_blocks st dinode s read (i + 1)
  end

let absent () = { f_block = 0; f_off = 0; f_ino = 0; f_kind = File_kind.Regular }

let scan_dir st dinode ~src ~dst ~fit =
  let s =
    { src_name = src; dst_name = dst; fit; limit = st.geo.block_size; block = 0;
      src = absent (); dst = absent (); slot_block = 0; slot_off = 0 }
  in
  scan_blocks st dinode s (fun b -> scan_records s b 0) 0;
  s

(* The live record named [name]; [f_block = 0] when there is none. *)
let find_entry st dinode name = (scan_dir st dinode ~src:name ~dst:"" ~fit:0).src

(** Write a dirent into the slot [s] found, or else into a new directory
    block in the first free direct pointer.  Returns the possibly grown
    dinode. *)
let insert_entry st dir_ino dinode s ~name ~ino ~kind =
  let namelen = String.length name in
  let write_record block off =
    Pagecache.with_page_mut st.cache block (fun b ->
        set32 b off ino;
        Bytes.set b (off + 4) (Char.chr (kind_to_byte kind));
        Bytes.set b (off + 5) (Char.chr namelen);
        Bytes.blit_string name 0 b (off + dirent_header) namelen)
  in
  if s.slot_block <> 0 then begin
    write_record s.slot_block s.slot_off;
    Ok dinode
  end
  else begin
    let rec free_slot i =
      if i >= direct_pointers then Error Errno.ENOSPC
      else if dinode.direct.(i) = 0 then Ok i
      else free_slot (i + 1)
    in
    let* slot = free_slot 0 in
    let* block = alloc_block st in
    let direct = Array.copy dinode.direct in
    direct.(slot) <- block;
    let dinode = { dinode with direct; size = dinode.size + st.geo.block_size } in
    write_dinode st dir_ino dinode;
    write_record block 0;
    Ok dinode
  end

let remove_entry st found =
  Pagecache.with_page_mut st.cache found.f_block (fun b -> set32 b found.f_off 0)

(* --- mkfs / mount --- *)

let mkfs cache =
  let block_size = Pagecache.block_size cache in
  (* Derive the block count from the underlying device via a probe write to
     the last block? The device knows; Pagecache doesn't expose it, so use a
     generous default consistent with Blockdev.default_config. *)
  let block_count = 1 lsl 18 in
  let geo = compute_geometry cache block_count in
  let st = { cache; geo; pins = Inttbl.create 16; inode_hint = 0; block_hint = 0 } in
  (* Zero all metadata blocks. *)
  let zero = Bytes.make block_size '\000' in
  for blk = 0 to geo.data_start - 1 do
    Pagecache.write_page cache blk zero
  done;
  (* Superblock. *)
  Pagecache.with_page_mut cache 0 (fun b ->
      set32 b 0 magic;
      set32 b 4 geo.block_count;
      set32 b 8 geo.inode_count;
      set32 b 12 geo.inode_bitmap_start;
      set32 b 16 (geo.block_bitmap_start - geo.inode_bitmap_start);
      set32 b 20 geo.block_bitmap_start;
      set32 b 24 (geo.itable_start - geo.block_bitmap_start);
      set32 b 28 geo.itable_start;
      set32 b 32 (geo.data_start - geo.itable_start);
      set32 b 36 geo.data_start;
      set32 b 40 1);
  (* Root directory: inode 1, no data blocks yet. *)
  bitmap_set st ~start:geo.inode_bitmap_start 0 true;
  write_dinode st 1
    {
      kind = File_kind.Directory;
      mode = Mode.default_dir;
      uid = 0;
      gid = 0;
      nlink = 2;
      size = 0;
      direct = Array.make direct_pointers 0;
      indirect = 0;
      label = None;
    };
  Pagecache.flush cache

let read_geometry cache =
  let block_size = Pagecache.block_size cache in
  Pagecache.with_page cache 0 (fun b ->
      if get32 b 0 <> magic then Error Errno.EINVAL
      else
        Ok
          {
            block_size;
            block_count = get32 b 4;
            inode_count = get32 b 8;
            inode_bitmap_start = get32 b 12;
            block_bitmap_start = get32 b 20;
            itable_start = get32 b 28;
            data_start = get32 b 36;
          })

(* --- the Fs_intf implementation --- *)

let get_dir st ino =
  let* d = read_dinode st ino in
  if File_kind.equal d.kind File_kind.Directory then Ok d else Error Errno.ENOTDIR

let make_fs st =
  let lookup dir name =
    if String.length name > max_name_len then Error Errno.ENAMETOOLONG
    else begin
      let* d = get_dir st dir in
      let found = find_entry st d name in
      if found.f_block = 0 then Error Errno.ENOENT else read_attr st found.f_ino
    end
  in
  let getattr ino = read_attr st ino in
  let truncate_to d size st =
    (* Only whole-hearted growth/shrink of the byte size; blocks beyond the
       new size are kept (no hole punching), matching simple file systems. *)
    ignore st;
    { d with size }
  in
  let setattr ino changes =
    let* d = read_dinode st ino in
    let d = match changes.set_mode with Some m -> { d with mode = m } | None -> d in
    let d = match changes.set_uid with Some u -> { d with uid = u } | None -> d in
    let d = match changes.set_gid with Some g -> { d with gid = g } | None -> d in
    let d =
      match changes.set_label with
      | Some label ->
        (match label with
        | Some l when String.length l > max_label_len -> d
        | _ -> { d with label })
      | None -> d
    in
    let d =
      match (changes.set_size, d.kind) with
      | Some size, File_kind.Regular -> truncate_to d size st
      | _, _ -> d
    in
    write_dinode st ino d;
    Ok (attr_of_dinode ino d)
  in
  let readdir dir =
    let* d = get_dir st dir in
    Ok (list_entries st d)
  in
  let new_inode st kind mode ~uid ~gid ~label =
    let* ino = alloc_inode st in
    let nlink = if File_kind.equal kind File_kind.Directory then 2 else 1 in
    let d =
      { kind; mode; uid; gid; nlink; size = 0; direct = Array.make direct_pointers 0;
        indirect = 0; label }
    in
    write_dinode st ino d;
    Ok (ino, d)
  in
  (* One scan of [dir] answers EEXIST and finds the slot for [name]. *)
  let add_entry_checked dir name ~child_kind k =
    if String.length name > max_name_len then Error Errno.ENAMETOOLONG
    else begin
      let* d = get_dir st dir in
      let s = scan_dir st d ~src:"" ~dst:name ~fit:(dirent_header + String.length name) in
      if s.dst.f_block <> 0 then Error Errno.EEXIST
      else begin
        let* ino, child = k () in
        let* d = insert_entry st dir d s ~name ~ino ~kind:child_kind in
        if File_kind.equal child_kind File_kind.Directory then
          write_dinode st dir { d with nlink = d.nlink + 1 };
        Ok (attr_of_dinode ino child)
      end
    end
  in
  let create dir name kind mode ~uid ~gid =
    match kind with
    | File_kind.Symlink -> Error Errno.EINVAL
    | _ ->
      add_entry_checked dir name ~child_kind:kind (fun () ->
          new_inode st kind mode ~uid ~gid ~label:None)
  in
  let write_data ino data =
    (* Raw append used by symlink; assumes a fresh inode. *)
    let* d = read_dinode st ino in
    let len = String.length data in
    let block_size = st.geo.block_size in
    let rec loop off d =
      if off >= len then Ok d
      else begin
        let idx = off / block_size in
        let* block, d = block_for st d idx ~alloc:true in
        let chunk = Int.min block_size (len - off) in
        Pagecache.with_page_mut st.cache block (fun b -> Bytes.blit_string data off b 0 chunk);
        loop (off + chunk) d
      end
    in
    let* d = loop 0 d in
    let d = { d with size = len } in
    write_dinode st ino d;
    Ok ()
  in
  let symlink dir name ~target ~uid ~gid =
    let* attr =
      add_entry_checked dir name ~child_kind:File_kind.Symlink (fun () ->
          new_inode st File_kind.Symlink Mode.rwxrwxrwx ~uid ~gid ~label:None)
    in
    let* () = write_data attr.Attr.ino target in
    getattr attr.Attr.ino
  in
  let link dir name ino =
    let* target = read_dinode st ino in
    if File_kind.equal target.kind File_kind.Directory then Error Errno.EPERM
    else begin
      let* _ = add_entry_checked dir name ~child_kind:target.kind (fun () -> Ok (ino, target)) in
      let target = { target with nlink = target.nlink + 1 } in
      write_dinode st ino target;
      Ok (attr_of_dinode ino target)
    end
  in
  let destroy st ino d =
    free_file_blocks st d;
    free_inode st ino
  in
  let drop_nlink st ino d =
    let d = { d with nlink = d.nlink - 1 } in
    if d.nlink <= 0 then begin
      if Inttbl.mem st.pins ino then write_dinode st ino d (* orphan until unpin *)
      else destroy st ino d
    end
    else write_dinode st ino d
  in
  let pin_inode ino =
    Inttbl.replace st.pins ino (1 + Option.value (Inttbl.find_opt st.pins ino) ~default:0)
  in
  let unpin_inode ino =
    match Inttbl.find_opt st.pins ino with
    | None -> ()
    | Some n when n > 1 -> Inttbl.replace st.pins ino (n - 1)
    | Some _ ->
      Inttbl.remove st.pins ino;
      (match read_dinode st ino with
      | Ok d when d.nlink <= 0 -> destroy st ino d
      | Ok _ | Error _ -> ())
  in
  let unlink dir name =
    let* d = get_dir st dir in
    let found = find_entry st d name in
    if found.f_block = 0 then Error Errno.ENOENT
    else if File_kind.equal found.f_kind File_kind.Directory then Error Errno.EISDIR
    else begin
      let* child = read_dinode st found.f_ino in
      remove_entry st found;
      drop_nlink st found.f_ino child;
      Ok ()
    end
  in
  let rmdir dir name =
    let* d = get_dir st dir in
    let found = find_entry st d name in
    if found.f_block = 0 then Error Errno.ENOENT
    else if not (File_kind.equal found.f_kind File_kind.Directory) then Error Errno.ENOTDIR
    else begin
      let* child = read_dinode st found.f_ino in
      if not (dir_is_empty st child) then Error Errno.ENOTEMPTY
      else begin
        remove_entry st found;
        free_file_blocks st child;
        free_inode st found.f_ino;
        write_dinode st dir { d with nlink = d.nlink - 1 };
        Ok ()
      end
    end
  in
  (* [od] holds [src]; [s] is the scan of [nd] for the target and its slot
     (one scan when the two directories are one).  Nothing is re-read: the
     only directory dinode a removal rewrites is [nd]'s nlink, carried here. *)
  let move old_dir od src new_dir nd (s : scan) new_name =
    let dst = s.dst in
    let src_is_dir = File_kind.equal src.f_kind File_kind.Directory in
    if dst.f_block <> 0 && dst.f_ino = src.f_ino
       && not (dst.f_block = src.f_block && dst.f_off = src.f_off)
    then Ok () (* onto another hard link of itself: POSIX says do nothing *)
    else begin
      let* nd =
        if dst.f_block = 0 || dst.f_ino = src.f_ino then Ok nd
        else begin
          let* dst_inode = read_dinode st dst.f_ino in
          match (src_is_dir, File_kind.equal dst.f_kind File_kind.Directory) with
          | true, true ->
            if not (dir_is_empty st dst_inode) then Error Errno.ENOTEMPTY
            else begin
              remove_entry st dst;
              free_file_blocks st dst_inode;
              free_inode st dst.f_ino;
              let nd = { nd with nlink = nd.nlink - 1 } in
              write_dinode st new_dir nd;
              Ok nd
            end
          | true, false -> Error Errno.ENOTDIR
          | false, true -> Error Errno.EISDIR
          | false, false ->
            remove_entry st dst;
            drop_nlink st dst.f_ino dst_inode;
            Ok nd
        end
      in
      remove_entry st src;
      let* nd = insert_entry st new_dir nd s ~name:new_name ~ino:src.f_ino ~kind:src.f_kind in
      if src_is_dir && old_dir <> new_dir then begin
        write_dinode st new_dir { nd with nlink = nd.nlink + 1 };
        write_dinode st old_dir { od with nlink = od.nlink - 1 }
      end;
      Ok ()
    end
  in
  let rename old_dir old_name new_dir new_name =
    let* od = get_dir st old_dir in
    let fit = dirent_header + String.length new_name in
    if old_dir = new_dir then begin
      let s = scan_dir st od ~src:old_name ~dst:new_name ~fit in
      if s.src.f_block = 0 then Error Errno.ENOENT else move old_dir od s.src new_dir od s new_name
    end
    else begin
      let src = find_entry st od old_name in
      if src.f_block = 0 then Error Errno.ENOENT
      else begin
        let* nd = get_dir st new_dir in
        move old_dir od src new_dir nd (scan_dir st nd ~src:"" ~dst:new_name ~fit) new_name
      end
    end
  in
  let read_file_data st d ~off ~len =
    let block_size = st.geo.block_size in
    let available = Int.max 0 (Int.min len (d.size - off)) in
    let out = Bytes.create available in
    let rec loop pos =
      if pos >= available then ()
      else begin
        let file_off = off + pos in
        let idx = file_off / block_size in
        let block_off = file_off mod block_size in
        let chunk = Int.min (block_size - block_off) (available - pos) in
        (match block_for st d idx ~alloc:false with
        | Ok (0, _) | Error _ -> Bytes.fill out pos chunk '\000'
        | Ok (block, _) ->
          Pagecache.with_page st.cache block (fun b -> Bytes.blit b block_off out pos chunk));
        loop (pos + chunk)
      end
    in
    loop 0;
    Bytes.unsafe_to_string out
  in
  let readlink ino =
    let* d = read_dinode st ino in
    if not (File_kind.equal d.kind File_kind.Symlink) then Error Errno.EINVAL
    else Ok (read_file_data st d ~off:0 ~len:d.size)
  in
  let read ino ~off ~len =
    let* d = read_dinode st ino in
    match d.kind with
    | File_kind.Directory -> Error Errno.EISDIR
    | File_kind.Symlink -> Error Errno.EINVAL
    | _ -> Ok (read_file_data st d ~off ~len)
  in
  let write ino ~off data =
    let* d = read_dinode st ino in
    match d.kind with
    | File_kind.Directory -> Error Errno.EISDIR
    | File_kind.Symlink -> Error Errno.EINVAL
    | _ ->
      let block_size = st.geo.block_size in
      let len = String.length data in
      let rec loop pos d =
        if pos >= len then Ok d
        else begin
          let file_off = off + pos in
          let idx = file_off / block_size in
          let block_off = file_off mod block_size in
          let chunk = Int.min (block_size - block_off) (len - pos) in
          let* block, d = block_for st d idx ~alloc:true in
          Pagecache.with_page_mut st.cache block (fun b ->
              Bytes.blit_string data pos b block_off chunk);
          loop (pos + chunk) d
        end
      in
      let* d = loop 0 d in
      let d = { d with size = Int.max d.size (off + len) } in
      write_dinode st ino d;
      Ok len
  in
  {
    fs_type = "extfs";
    root_ino = 1;
    negative_dentries = true;
    lookup;
    getattr;
    setattr;
    readdir;
    create;
    symlink;
    link;
    unlink;
    rmdir;
    rename;
    readlink;
    read;
    write;
    sync = (fun () -> Pagecache.flush st.cache);
    pin_inode;
    unpin_inode;
    revalidate = None;
    lease_check = None;
  }

(* Storage faults surface as [Errno.Error] exceptions raised inside the
   page cache; convert them into [Error] results at the interface boundary
   so the VFS sees an honest errno instead of an exception unwinding
   through a half-finished walk.  [sync]/[pin]/[unpin] have no result
   channel: a failure there leaves its pages dirty (retried by the next
   flush) and is swallowed, exactly the silent outcome a dying disk gives
   the kernel — fsck or a scrub finds the damage later. *)
let shield (fs : Fs_intf.t) =
  let open Fs_intf in
  {
    fs with
    lookup = (fun dir name -> try fs.lookup dir name with Errno.Error e -> Error e);
    getattr = (fun ino -> try fs.getattr ino with Errno.Error e -> Error e);
    setattr = (fun ino changes -> try fs.setattr ino changes with Errno.Error e -> Error e);
    readdir = (fun dir -> try fs.readdir dir with Errno.Error e -> Error e);
    create =
      (fun dir name kind mode ~uid ~gid ->
        try fs.create dir name kind mode ~uid ~gid with Errno.Error e -> Error e);
    symlink =
      (fun dir name ~target ~uid ~gid ->
        try fs.symlink dir name ~target ~uid ~gid with Errno.Error e -> Error e);
    link = (fun dir name ino -> try fs.link dir name ino with Errno.Error e -> Error e);
    unlink = (fun dir name -> try fs.unlink dir name with Errno.Error e -> Error e);
    rmdir = (fun dir name -> try fs.rmdir dir name with Errno.Error e -> Error e);
    rename =
      (fun old_dir old_name new_dir new_name ->
        try fs.rename old_dir old_name new_dir new_name with Errno.Error e -> Error e);
    readlink = (fun ino -> try fs.readlink ino with Errno.Error e -> Error e);
    read = (fun ino ~off ~len -> try fs.read ino ~off ~len with Errno.Error e -> Error e);
    write = (fun ino ~off data -> try fs.write ino ~off data with Errno.Error e -> Error e);
    sync = (fun () -> try fs.sync () with Errno.Error _ -> ());
    pin_inode = (fun ino -> try fs.pin_inode ino with Errno.Error _ -> ());
    unpin_inode = (fun ino -> try fs.unpin_inode ino with Errno.Error _ -> ());
  }

let mount cache =
  match
    let* geo = read_geometry cache in
    Ok (shield (make_fs { cache; geo; pins = Inttbl.create 16; inode_hint = 0; block_hint = 0 }))
  with
  | result -> result
  | exception Errno.Error e -> Error e

let mkfs_and_mount cache =
  mkfs cache;
  match mount cache with
  | Ok fs -> fs
  | Error e ->
    (* Only reachable when a fault was injected between format and mount:
       propagate the device error rather than dying on an assert. *)
    raise (Errno.Error e)
