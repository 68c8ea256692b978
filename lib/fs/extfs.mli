(** Disk-backed file system with an ext-style on-disk format.

    Stands in for the paper's journaled ext4 volume: a superblock, inode and
    block bitmaps, a fixed inode table, and data blocks holding packed
    directory entries and file contents (12 direct pointers plus one
    indirect block).  All accesses go through the {!Dcache_storage.Pagecache},
    so a cold cache pays simulated seek and transfer latency and even a warm
    miss pays the cost of re-parsing the on-disk metadata — exactly the
    dcache-miss costs the paper's §5 optimizations avoid.

    Directory entries are packed records [ino:4 | kind:1 | namelen:1 | name];
    unlinked entries become tombstones ([ino = 0]).  Names are limited to 255
    bytes, files to [12 + block_size/4] blocks.

    Each operation reads each directory it touches once, in block order.  A
    rename's pass over a directory finds the source record, the target
    record and the slot for the new record; a create's finds the existing
    name (EEXIST) and the slot.  The slot is the first exact-size tombstone
    (a record the operation removes counts as one) or zeroed tail space,
    else a new block.  That is the slot the older find-then-insert passes
    chose, so the on-disk layout and the images a given sequence of calls
    leaves are unchanged. *)

val mkfs : Dcache_storage.Pagecache.t -> unit
(** Format the device.  Destroys existing contents. *)

val mount : Dcache_storage.Pagecache.t -> (Fs_intf.t, Dcache_types.Errno.t) result
(** Mount a formatted device; [Error EINVAL] if the superblock is bad. *)

val mkfs_and_mount : Dcache_storage.Pagecache.t -> Fs_intf.t
