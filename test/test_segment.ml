open Sasos
open Sasos.Os

let geom = Geometry.default

let test_allocate_disjoint () =
  let t = Segment_table.create geom in
  let a = Segment_table.allocate t ~pages:4 () in
  let b = Segment_table.allocate t ~pages:8 () in
  Alcotest.(check bool) "disjoint" true
    (Segment.limit a <= b.Segment.base || Segment.limit b <= a.Segment.base);
  Alcotest.(check bool) "page aligned" true
    (a.Segment.base mod Geometry.page_size geom = 0)

let test_guard_page () =
  let t = Segment_table.create geom in
  let a = Segment_table.allocate t ~pages:1 () in
  let b = Segment_table.allocate t ~pages:1 () in
  Alcotest.(check bool) "gap between segments" true
    (b.Segment.base >= Segment.limit a + Geometry.page_size geom)

let test_find_by_va () =
  let t = Segment_table.create geom in
  let a = Segment_table.allocate t ~pages:4 () in
  Alcotest.(check bool) "interior" true
    (match Segment_table.find_by_va t (a.Segment.base + 100) with
    | Some s -> Segment.id_equal s.Segment.id a.Segment.id
    | None -> false);
  Alcotest.(check bool) "guard page unmatched" true
    (Segment_table.find_by_va t (Segment.limit a) = None);
  Alcotest.(check bool) "before start unmatched" true
    (Segment_table.find_by_va t (a.Segment.base - 1) = None)

let test_destroy_no_reuse () =
  let t = Segment_table.create geom in
  let a = Segment_table.allocate t ~pages:4 () in
  ignore (Segment_table.destroy t a.Segment.id);
  Alcotest.(check bool) "gone" true (Segment_table.find t a.Segment.id = None);
  let b = Segment_table.allocate t ~pages:4 () in
  (* single address space: destroyed ranges are never reallocated *)
  Alcotest.(check bool) "no address reuse" true (b.Segment.base > a.Segment.base)

let test_alignment () =
  let t = Segment_table.create geom in
  let _ = Segment_table.allocate t ~pages:3 () in
  let a = Segment_table.allocate t ~align_shift:22 ~pages:1024 () in
  Alcotest.(check int) "4MB aligned" 0 (a.Segment.base mod (1 lsl 22));
  Alcotest.(check bool) "align below page rejected" true
    (try
       ignore (Segment_table.allocate t ~align_shift:8 ~pages:1 ());
       false
     with Invalid_argument _ -> true)

(* Regression: [pages lsl page_shift] wrapped negative for 2^50 pages of
   4 KB, slipped under the address-limit test and produced a segment with
   a negative limit, then a next base past 2^62. *)
let test_huge_segment_rejected () =
  let t = Segment_table.create geom in
  let _ = Segment_table.allocate t ~pages:1 () in
  List.iter
    (fun pages ->
      Alcotest.check_raises
        (Printf.sprintf "%d pages" pages)
        (Invalid_argument "Segment_table.allocate: pages exceed the address space")
        (fun () -> ignore (Segment_table.allocate t ~pages ())))
    [ 1 lsl 50; 1 lsl 49; max_int ];
  Alcotest.(check int) "nothing added" 1 (Segment_table.live_count t);
  let s = Segment_table.allocate t ~pages:2 () in
  Alcotest.(check bool) "next segment sane" true
    (s.Segment.base > 0 && Segment.limit s > s.Segment.base);
  Alcotest.(check bool) "found again" true
    (Segment_table.find_by_va t s.Segment.base = Some s)

(* Regression: [1 lsl s] is unspecified from 63 up (on 64-bit hosts
   [1 lsl 64] reads 1), so an oversized alignment was silently dropped.
   2^60 is the largest alignment with a base below the 2^61 limit. *)
let test_oversized_alignment_rejected () =
  let t = Segment_table.create geom in
  List.iter
    (fun s ->
      Alcotest.check_raises
        (Printf.sprintf "align_shift %d" s)
        (Invalid_argument "Segment_table.allocate: align_shift >= 61")
        (fun () -> ignore (Segment_table.allocate t ~align_shift:s ~pages:1 ())))
    [ 61; 62; 63; 64; 70 ];
  let a = Segment_table.allocate t ~align_shift:60 ~pages:1 () in
  Alcotest.(check int) "2^60 aligned" 0 (a.Segment.base mod (1 lsl 60))

(* The overflow guard must not cost a segment that fits: one page more
   than the space left below the 2^61 address limit is refused, the
   largest segment that fits is placed and found at its last byte, and
   afterwards not even one page fits. *)
let test_largest_segment_accepted () =
  let t = Segment_table.create geom in
  let page = Geometry.page_size geom in
  let first = Segment_table.allocate t ~pages:1 () in
  (* the next base follows [first] and its guard page *)
  let base = Segment.limit first + page in
  let pages = ((1 lsl 61) - base) / page - 1 in
  Alcotest.check_raises "one page too many"
    (Invalid_argument "Segment_table.allocate: address space exhausted")
    (fun () -> ignore (Segment_table.allocate t ~pages:(pages + 1) ()));
  let s = Segment_table.allocate t ~pages () in
  Alcotest.(check int) "placed at the next base" base s.Segment.base;
  Alcotest.(check int) "ends one page below the limit"
    ((1 lsl 61) - page)
    (Segment.limit s);
  Alcotest.(check bool) "last byte found" true
    (Segment_table.find_by_va t (Segment.limit s - 1) = Some s);
  Alcotest.check_raises "space used up"
    (Invalid_argument "Segment_table.allocate: pages exceed the address space")
    (fun () -> ignore (Segment_table.allocate t ~pages:1 ()))

let test_segment_helpers () =
  let t = Segment_table.create geom in
  let s = Segment_table.allocate t ~name:"heap" ~pages:4 () in
  Alcotest.(check int) "size" (4 * 4096) (Segment.size_bytes s);
  Alcotest.(check int) "page_va 2" (s.Segment.base + 0x2000) (Segment.page_va s 2);
  Alcotest.(check int) "vpns count" 4 (List.length (Segment.vpns s));
  Alcotest.(check bool) "contains" true (Segment.contains s (s.Segment.base + 1));
  Alcotest.(check bool) "not contains limit" false
    (Segment.contains s (Segment.limit s));
  Alcotest.(check bool) "page_va out of range" true
    (try
       ignore (Segment.page_va s 4);
       false
     with Invalid_argument _ -> true)

(* property: any allocation sequence yields pairwise-disjoint live segments *)
let prop_disjoint =
  QCheck2.Test.make ~name:"segment ranges pairwise disjoint"
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 1 30))
    (fun sizes ->
      let t = Segment_table.create geom in
      let segs = List.map (fun pages -> Segment_table.allocate t ~pages ()) sizes in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Segment.id_equal a.Segment.id b.Segment.id
              || Segment.limit a <= b.Segment.base
              || Segment.limit b <= a.Segment.base)
            segs)
        segs)

let suite =
  [
    Alcotest.test_case "allocate disjoint" `Quick test_allocate_disjoint;
    Alcotest.test_case "guard page" `Quick test_guard_page;
    Alcotest.test_case "find_by_va" `Quick test_find_by_va;
    Alcotest.test_case "destroy retires addresses" `Quick test_destroy_no_reuse;
    Alcotest.test_case "alignment" `Quick test_alignment;
    Alcotest.test_case "huge segment rejected" `Quick
      test_huge_segment_rejected;
    Alcotest.test_case "oversized alignment rejected" `Quick
      test_oversized_alignment_rejected;
    Alcotest.test_case "largest fitting segment accepted" `Quick
      test_largest_segment_accepted;
    Alcotest.test_case "segment helpers" `Quick test_segment_helpers;
    Qprop.to_alcotest prop_disjoint;
  ]
