open Sasos.Mem

let test_frame_alloc () =
  let f = Frame_allocator.create ~frames:3 in
  Alcotest.(check int) "total" 3 (Frame_allocator.total f);
  let a = Option.get (Frame_allocator.alloc f) in
  let b = Option.get (Frame_allocator.alloc f) in
  let c = Option.get (Frame_allocator.alloc f) in
  Alcotest.(check bool) "distinct" true (a <> b && b <> c && a <> c);
  Alcotest.(check (option int)) "exhausted" None (Frame_allocator.alloc f);
  Frame_allocator.free f b;
  Alcotest.(check int) "one free" 1 (Frame_allocator.free_count f);
  Alcotest.(check (option int)) "reuse" (Some b) (Frame_allocator.alloc f)

let test_frame_double_free () =
  let f = Frame_allocator.create ~frames:2 in
  let a = Option.get (Frame_allocator.alloc f) in
  Frame_allocator.free f a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Frame_allocator.free: double free") (fun () ->
      Frame_allocator.free f a)

(* Lockstep against the prebuilt-stack reference model: the same
   frames in the same order, the same rejected frees, the same counts. *)
type fa_op = Alloc | Alloc_int | Free of int | Is_free of int

let fa_op_to_string = function
  | Alloc -> "alloc"
  | Alloc_int -> "alloc_int"
  | Free f -> Printf.sprintf "free %d" f
  | Is_free f -> Printf.sprintf "is_free %d" f

let gen_fa_case =
  let open QCheck2.Gen in
  let* frames = oneofl [ 1; 2; 3; 64; 65_536 ] in
  (* frames are handed out from 0 up, so low numbers are the live ones;
     the boundaries exercise the bad-frame checks *)
  let frame =
    frequency
      [
        (6, int_range (-1) (min frames 80));
        (1, oneofl [ frames - 1; frames; frames + 1; -2 ]);
      ]
  in
  let op =
    frequency
      [
        (3, return Alloc);
        (3, return Alloc_int);
        (4, map (fun f -> Free f) frame);
        (2, map (fun f -> Is_free f) frame);
      ]
  in
  let+ ops = list_size (int_range 0 300) op in
  (frames, ops)

let print_fa_case (frames, ops) =
  Printf.sprintf "frames=%d [%s]" frames
    (String.concat "; " (List.map fa_op_to_string ops))

let outcome f =
  match f () with
  | s -> s
  | exception Invalid_argument m -> "Invalid_argument " ^ m

let prop_frame_allocator_lockstep =
  QCheck2.Test.make ~count:300 ~name:"frame allocator matches prebuilt-stack model"
    ~print:print_fa_case gen_fa_case (fun (frames, ops) ->
      let t = Frame_allocator.create ~frames in
      let m = Ref_frame_allocator.create ~frames in
      let opt = function None -> "None" | Some f -> string_of_int f in
      List.iteri
        (fun i op ->
          let got, want =
            match op with
            | Alloc ->
                ( outcome (fun () -> opt (Frame_allocator.alloc t)),
                  outcome (fun () -> opt (Ref_frame_allocator.alloc m)) )
            | Alloc_int ->
                ( outcome (fun () -> string_of_int (Frame_allocator.alloc_int t)),
                  outcome (fun () ->
                      string_of_int (Ref_frame_allocator.alloc_int m)) )
            | Free f ->
                ( outcome (fun () -> Frame_allocator.free t f; "()"),
                  outcome (fun () -> Ref_frame_allocator.free m f; "()") )
            | Is_free f ->
                ( outcome (fun () -> string_of_bool (Frame_allocator.is_free t f)),
                  outcome (fun () ->
                      string_of_bool (Ref_frame_allocator.is_free m f)) )
          in
          let counts (total, free, used) = Printf.sprintf "%d/%d/%d" total free used in
          let got = got ^ " " ^ counts Frame_allocator.(total t, free_count t, used_count t)
          and want =
            want ^ " "
            ^ counts Ref_frame_allocator.(total m, free_count m, used_count m)
          in
          if got <> want then
            QCheck2.Test.fail_reportf "op %d (%s): got %s, model %s" i
              (fa_op_to_string op) got want)
        ops;
      true)

let test_frame_create_is_lazy () =
  (* no per-frame stack: one would cost a word per frame, 16M words here *)
  let frames = 1 lsl 24 in
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let f = Frame_allocator.create ~frames in
  let words = (Gc.allocated_bytes () -. a0) /. 8.0 in
  Alcotest.(check bool)
    (Printf.sprintf "create allocates %.0f words < frames / 4" words)
    true
    (words < float_of_int (frames / 4));
  Alcotest.(check int) "all free" frames (Frame_allocator.free_count f);
  Alcotest.(check bool) "last frame free" true
    (Frame_allocator.is_free f (frames - 1))

let test_ipt () =
  let t = Inverted_page_table.create () in
  Inverted_page_table.map t ~vpn:10 ~pfn:3;
  Alcotest.(check bool) "mapped" true (Inverted_page_table.is_mapped t ~vpn:10);
  (* single translation per page: re-mapping is a homonym, forbidden *)
  Alcotest.check_raises "remap"
    (Invalid_argument "Inverted_page_table.map: page already mapped")
    (fun () -> Inverted_page_table.map t ~vpn:10 ~pfn:4);
  let bits = Inverted_page_table.find_bits t ~vpn:10 in
  Alcotest.(check int) "pfn" 3 (Inverted_page_table.bits_pfn bits);
  Alcotest.(check bool) "clean" false (Inverted_page_table.bits_dirty bits);
  Inverted_page_table.set_dirty t ~vpn:10;
  let bits = Inverted_page_table.unmap_bits t ~vpn:10 in
  Alcotest.(check bool) "dirty preserved" true
    (Inverted_page_table.bits_dirty bits);
  Alcotest.(check int) "pfn preserved" 3 (Inverted_page_table.bits_pfn bits);
  Alcotest.(check bool) "unmapped" false (Inverted_page_table.is_mapped t ~vpn:10);
  Alcotest.(check int) "unmap absent" (-1)
    (Inverted_page_table.unmap_bits t ~vpn:10)

let test_backing_store () =
  let b = Backing_store.create () in
  Backing_store.write b ~vpn:1 ~bytes_used:4096;
  Backing_store.write b ~vpn:2 ~bytes_used:1000;
  Alcotest.(check int) "bytes" 5096 (Backing_store.bytes_used b);
  Backing_store.write b ~vpn:1 ~bytes_used:2000;
  Alcotest.(check int) "overwrite adjusts" 3000 (Backing_store.bytes_used b);
  Alcotest.(check (option int)) "read" (Some 2000) (Backing_store.read b ~vpn:1);
  Alcotest.(check bool) "read keeps copy" true (Backing_store.resident b ~vpn:1);
  Backing_store.drop b ~vpn:1;
  Alcotest.(check int) "dropped" 1000 (Backing_store.bytes_used b);
  Alcotest.(check (option int)) "gone" None (Backing_store.read b ~vpn:1)

let test_compressor () =
  let c = Compressor.create ~page_bytes:4096 () in
  let s1 = Compressor.compressed_size c 42 in
  let s2 = Compressor.compressed_size c 42 in
  Alcotest.(check int) "deterministic" s1 s2;
  Alcotest.(check bool) "within page" true (s1 >= 1 && s1 <= 4096);
  (* average should be near the mean ratio *)
  let total = ref 0 in
  let n = 500 in
  for vpn = 0 to n - 1 do
    total := !total + Compressor.compressed_size c vpn
  done;
  let avg = float_of_int !total /. float_of_int n /. 4096.0 in
  Alcotest.(check bool) "mean ratio ~0.4" true (avg > 0.3 && avg < 0.5)

let suite =
  [
    Alcotest.test_case "frame allocator" `Quick test_frame_alloc;
    Alcotest.test_case "double free rejected" `Quick test_frame_double_free;
    Qprop.to_alcotest prop_frame_allocator_lockstep;
    Alcotest.test_case "create builds no per-frame stack" `Quick
      test_frame_create_is_lazy;
    Alcotest.test_case "inverted page table" `Quick test_ipt;
    Alcotest.test_case "backing store" `Quick test_backing_store;
    Alcotest.test_case "compressor" `Quick test_compressor;
  ]
