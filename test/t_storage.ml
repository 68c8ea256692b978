(* Tests for the simulated block device and page cache. *)

module Blockdev = Dcache_storage.Blockdev
module Pagecache = Dcache_storage.Pagecache
module Vclock = Dcache_util.Vclock

let make_dev ?(blocks = 256) () =
  let clock = Vclock.create () in
  let config = { Blockdev.default_config with Blockdev.block_count = blocks } in
  (Blockdev.create ~config clock, clock)

let block_of_string dev s =
  let b = Bytes.make (Blockdev.block_size dev) '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let test_blockdev_roundtrip () =
  let dev, _ = make_dev () in
  Blockdev.write_block dev 3 (block_of_string dev "hello");
  let data = Blockdev.read_block dev 3 in
  Alcotest.(check string) "roundtrip" "hello" (Bytes.sub_string data 0 5);
  let zero = Blockdev.read_block dev 10 in
  Alcotest.(check char) "unwritten zero" '\000' (Bytes.get zero 0)

let test_blockdev_bounds () =
  let dev, _ = make_dev ~blocks:8 () in
  Alcotest.check_raises "oob read" (Invalid_argument "Blockdev: block 8 out of range")
    (fun () -> ignore (Blockdev.read_block dev 8));
  Alcotest.check_raises "negative" (Invalid_argument "Blockdev: block -1 out of range")
    (fun () -> ignore (Blockdev.read_block dev (-1)))

let test_blockdev_wrong_size () =
  let dev, _ = make_dev () in
  Alcotest.check_raises "size" (Invalid_argument "Blockdev.write_block: wrong block size")
    (fun () -> Blockdev.write_block dev 0 (Bytes.create 7))

let test_blockdev_latency_model () =
  let dev, clock = make_dev () in
  ignore (Blockdev.read_block dev 100);
  let random_cost = Vclock.elapsed_ns clock in
  Vclock.reset clock;
  ignore (Blockdev.read_block dev 101);
  let sequential_cost = Vclock.elapsed_ns clock in
  Alcotest.(check bool) "seek >> sequential" true (random_cost > Int64.mul 10L sequential_cost);
  Alcotest.(check int) "reads counted" 2 (Blockdev.reads dev)

let test_pagecache_hit_miss () =
  let dev, clock = make_dev () in
  let cache = Pagecache.create ~capacity_pages:16 dev in
  ignore (Pagecache.read_page cache 5);
  let after_miss = Vclock.elapsed_ns clock in
  ignore (Pagecache.read_page cache 5);
  Alcotest.(check int64) "hit is free of device time" after_miss (Vclock.elapsed_ns clock);
  Alcotest.(check int) "one hit" 1 (Pagecache.hits cache);
  Alcotest.(check int) "one miss" 1 (Pagecache.misses cache)

let test_pagecache_writeback_on_evict () =
  let dev, _ = make_dev () in
  let cache = Pagecache.create ~capacity_pages:2 dev in
  Pagecache.write_page cache 0 (block_of_string dev "zero");
  Pagecache.write_page cache 1 (block_of_string dev "one");
  Alcotest.(check int) "nothing written yet" 0 (Blockdev.writes dev);
  (* Touch a third page: the evicted dirty page must be written back. *)
  ignore (Pagecache.read_page cache 2);
  Alcotest.(check bool) "writeback happened" true (Blockdev.writes dev >= 1);
  Pagecache.flush cache;
  let direct = Blockdev.read_block dev 1 in
  Alcotest.(check string) "contents on device" "one" (Bytes.sub_string direct 0 3)

(* CLOCK: pages arrive unmarked, a hit marks its page, and the hand spares
   a marked page once, clearing its mark.  So a page hit since the hand
   last passed outlives a page that was not, whatever their ages. *)
let test_pagecache_clock_spares_hit_page () =
  (* A full three-page cache whose oldest page, 0, was hit; [cached n] is
     a read that tells whether it hit. *)
  let filled () =
    let dev, _ = make_dev () in
    let cache = Pagecache.create ~capacity_pages:3 dev in
    let read n = ignore (Pagecache.read_page cache n) in
    let cached n =
      let misses = Pagecache.misses cache in
      read n;
      Pagecache.misses cache = misses
    in
    List.iter read [ 0; 1; 2; 0 ];
    (read, cached)
  in
  let read, cached = filled () in
  read 3;
  Alcotest.(check bool) "the hit page outlives pages read in after it" true (cached 0);
  Alcotest.(check bool) "the unhit page is evicted" false (cached 1);
  (* The sweep for page 3 cleared page 0's mark; page 2 is hit after it. *)
  let read, cached = filled () in
  read 3;
  read 2;
  read 4;
  Alcotest.(check bool) "page hit since the sweep kept" true (cached 2);
  Alcotest.(check bool) "page hit only before the sweep evicted" false (cached 0)

let test_pagecache_drop_caches () =
  let dev, clock = make_dev () in
  let cache = Pagecache.create dev in
  Pagecache.write_page cache 7 (block_of_string dev "persist");
  Pagecache.drop_caches cache;
  Alcotest.(check int) "empty" 0 (Pagecache.cached_pages cache);
  Vclock.reset clock;
  let data = Pagecache.read_page cache 7 in
  Alcotest.(check string) "survived" "persist" (Bytes.sub_string data 0 7);
  Alcotest.(check bool) "paid device latency" true (Vclock.elapsed_ns clock > 0L)

let test_pagecache_with_page_mut () =
  let dev, _ = make_dev () in
  let cache = Pagecache.create dev in
  Pagecache.with_page_mut cache 3 (fun b -> Bytes.blit_string "mut" 0 b 0 3);
  Alcotest.(check string) "visible" "mut"
    (Bytes.sub_string (Pagecache.read_page cache 3) 0 3);
  Pagecache.flush cache;
  Alcotest.(check string) "flushed" "mut"
    (Bytes.sub_string (Blockdev.read_block dev 3) 0 3)

let pagecache_model =
  QCheck.Test.make ~name:"pagecache+device == byte-array model" ~count:100
    QCheck.(list (triple bool (int_bound 31) (int_bound 255)))
    (fun ops ->
      let dev, _ = make_dev ~blocks:32 () in
      let cache = Pagecache.create ~capacity_pages:4 dev in
      let bs = Blockdev.block_size dev in
      let model = Array.make 32 0 in
      List.iter
        (fun (is_write, block, byte) ->
          if is_write then begin
            let b = Bytes.make bs (Char.chr byte) in
            Pagecache.write_page cache block b;
            model.(block) <- byte
          end
          else begin
            let data = Pagecache.read_page cache block in
            if Char.code (Bytes.get data 0) <> model.(block) then
              QCheck.Test.fail_reportf "block %d: got %d want %d" block
                (Char.code (Bytes.get data 0))
                model.(block)
          end)
        ops;
      (* After a flush, the raw device agrees everywhere. *)
      Pagecache.flush cache;
      Array.iteri
        (fun block byte ->
          let data = Blockdev.read_block dev block in
          if Char.code (Bytes.get data 0) <> byte then
            QCheck.Test.fail_reportf "flush block %d mismatch" block)
        model;
      true)

let suite =
  [
    Alcotest.test_case "blockdev roundtrip" `Quick test_blockdev_roundtrip;
    Alcotest.test_case "blockdev bounds" `Quick test_blockdev_bounds;
    Alcotest.test_case "blockdev wrong size" `Quick test_blockdev_wrong_size;
    Alcotest.test_case "blockdev latency model" `Quick test_blockdev_latency_model;
    Alcotest.test_case "pagecache hit/miss" `Quick test_pagecache_hit_miss;
    Alcotest.test_case "pagecache writeback on evict" `Quick test_pagecache_writeback_on_evict;
    Alcotest.test_case "pagecache CLOCK spares a hit page" `Quick
      test_pagecache_clock_spares_hit_page;
    Alcotest.test_case "pagecache drop_caches" `Quick test_pagecache_drop_caches;
    Alcotest.test_case "pagecache with_page_mut" `Quick test_pagecache_with_page_mut;
    QCheck_alcotest.to_alcotest pagecache_model;
  ]
