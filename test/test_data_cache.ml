open Sasos.Hw

let mk ?(org = Data_cache.Vivt) () =
  Data_cache.create ~org ~size_bytes:1024 ~line_bytes:32 ~ways:2 ()

let test_hit_after_fill () =
  let c = mk () in
  (match Data_cache.access c ~space:0 ~va:0x100 ~pa:0x9100 ~write:false with
  | Data_cache.Miss { writeback = false } -> ()
  | _ -> Alcotest.fail "cold miss expected");
  (match Data_cache.access c ~space:0 ~va:0x100 ~pa:0x9100 ~write:false with
  | Data_cache.Hit -> ()
  | _ -> Alcotest.fail "hit expected");
  (* same line, different byte *)
  match Data_cache.access c ~space:0 ~va:0x11f ~pa:0x911f ~write:false with
  | Data_cache.Hit -> ()
  | _ -> Alcotest.fail "same-line hit expected"

let test_writeback () =
  let c = Data_cache.create ~org:Data_cache.Vivt ~size_bytes:64 ~line_bytes:32 ~ways:1 () in
  (* direct-mapped, 2 sets; conflicting lines map to set 0: 0x0 and 0x40 *)
  ignore (Data_cache.access c ~space:0 ~va:0x0 ~pa:0x1000 ~write:true);
  (match Data_cache.access c ~space:0 ~va:0x40 ~pa:0x2040 ~write:false with
  | Data_cache.Miss { writeback } ->
      Alcotest.(check bool) "dirty victim written back" true writeback
  | Data_cache.Hit -> Alcotest.fail "conflict miss expected");
  Alcotest.(check int) "writeback counted" 1 (Data_cache.writebacks c)

let test_space_tag_homonyms () =
  let c = mk () in
  (* same VA in two spaces with different physical pages: distinct lines *)
  ignore (Data_cache.access c ~space:1 ~va:0x100 ~pa:0x1100 ~write:false);
  (match Data_cache.access c ~space:2 ~va:0x100 ~pa:0x2100 ~write:false with
  | Data_cache.Miss _ -> ()
  | Data_cache.Hit -> Alcotest.fail "homonym must not hit across spaces");
  match Data_cache.access c ~space:1 ~va:0x100 ~pa:0x1100 ~write:false with
  | Data_cache.Hit -> ()
  | _ -> Alcotest.fail "original space still hits"

let test_synonym_detection () =
  let c = mk () in
  (* one physical line under two spaces (MAS sharing): synonym *)
  ignore (Data_cache.access c ~space:1 ~va:0x100 ~pa:0x5100 ~write:false);
  ignore (Data_cache.access c ~space:2 ~va:0x100 ~pa:0x5100 ~write:false);
  Alcotest.(check int) "synonym counted" 1 (Data_cache.synonyms_detected c);
  Alcotest.(check int) "two resident copies" 2
    (Data_cache.resident_copies_of_pa c ~pa_line:(0x5100 lsr 5))

let test_no_synonym_same_space () =
  let c = mk () in
  ignore (Data_cache.access c ~space:0 ~va:0x100 ~pa:0x5100 ~write:false);
  ignore (Data_cache.access c ~space:0 ~va:0x100 ~pa:0x5100 ~write:true);
  Alcotest.(check int) "no synonym" 0 (Data_cache.synonyms_detected c)

let test_pipt_ignores_space () =
  let c = mk ~org:Data_cache.Pipt () in
  ignore (Data_cache.access c ~space:1 ~va:0x100 ~pa:0x5100 ~write:false);
  (* physically tagged: same PA hits regardless of space or VA *)
  match Data_cache.access c ~space:2 ~va:0x9100 ~pa:0x5100 ~write:false with
  | Data_cache.Hit -> ()
  | _ -> Alcotest.fail "PIPT must hit on same physical line"

let test_vipt_same_index_tagged_physically () =
  let c = mk ~org:Data_cache.Vipt () in
  ignore (Data_cache.access c ~space:0 ~va:0x100 ~pa:0x5100 ~write:false);
  (* same virtual index (same va), same physical tag: hit *)
  match Data_cache.access c ~space:0 ~va:0x100 ~pa:0x5100 ~write:false with
  | Data_cache.Hit -> ()
  | _ -> Alcotest.fail "VIPT hit expected"

let test_flush_va_range () =
  let c = mk () in
  ignore (Data_cache.access c ~space:0 ~va:0x1000 ~pa:0x1000 ~write:true);
  ignore (Data_cache.access c ~space:0 ~va:0x1020 ~pa:0x1020 ~write:false);
  ignore (Data_cache.access c ~space:0 ~va:0x2000 ~pa:0x2000 ~write:false);
  let flushed, wb = Data_cache.flush_va_range c ~space:0 ~lo:0x1000 ~hi:0x2000 in
  Alcotest.(check int) "two lines flushed" 2 flushed;
  Alcotest.(check int) "one writeback" 1 wb;
  (match Data_cache.access c ~space:0 ~va:0x1000 ~pa:0x1000 ~write:false with
  | Data_cache.Miss _ -> ()
  | Data_cache.Hit -> Alcotest.fail "flushed line must miss");
  match Data_cache.access c ~space:0 ~va:0x2000 ~pa:0x2000 ~write:false with
  | Data_cache.Hit -> ()
  | _ -> Alcotest.fail "line outside range must survive"

let test_flush_pa_page () =
  let c = mk () in
  ignore (Data_cache.access c ~space:1 ~va:0x1000 ~pa:0x7000 ~write:false);
  ignore (Data_cache.access c ~space:2 ~va:0x3000 ~pa:0x7020 ~write:false);
  let flushed, _ = Data_cache.flush_pa_page c ~pfn:7 in
  Alcotest.(check int) "both spaces' lines flushed" 2 flushed

let test_flush_all () =
  let c = mk () in
  ignore (Data_cache.access c ~space:0 ~va:0x0 ~pa:0x0 ~write:true);
  ignore (Data_cache.access c ~space:0 ~va:0x100 ~pa:0x100 ~write:false);
  let flushed, wb = Data_cache.flush_all c in
  Alcotest.(check int) "all flushed" 2 flushed;
  Alcotest.(check int) "dirty written" 1 wb

let test_geometry_validation () =
  Alcotest.(check bool) "non-power-of-two rejected" true
    (try
       ignore
         (Data_cache.create ~org:Data_cache.Vivt ~size_bytes:1000
            ~line_bytes:32 ~ways:2 ());
       false
     with Invalid_argument _ -> true)

(* Model-based property: a fully associative LRU VIVT cache must hit
   exactly when the line is among the last [ways] distinct lines touched. *)
let prop_fa_lru_model =
  QCheck2.Test.make ~count:200
    ~name:"fully-associative VIVT matches an LRU-list model"
    QCheck2.Gen.(list_size (int_range 1 300) (pair (int_bound 15) bool))
    (fun ops ->
      let ways = 4 in
      let c =
        Data_cache.create ~org:Data_cache.Vivt ~size_bytes:(32 * ways)
          ~line_bytes:32 ~ways ()
      in
      let model = ref [] (* most recent first, at most [ways] lines *) in
      List.for_all
        (fun (line, write) ->
          let va = line * 32 and pa = 0x10000 + (line * 32) in
          let expected_hit = List.mem line !model in
          model := line :: List.filter (( <> ) line) !model;
          if List.length !model > ways then
            model := List.filteri (fun i _ -> i < ways) !model;
          match Data_cache.access c ~space:0 ~va ~pa ~write with
          | Data_cache.Hit -> expected_hit
          | Data_cache.Miss _ -> not expected_hit)
        ops)

let test_create_rejects_subline_page () =
  (* 16-byte pages under 32-byte lines: the page-to-line shift would be
     negative, so page flushes and frame counts would name the wrong
     lines *)
  Alcotest.check_raises "negative shift"
    (Invalid_argument "Data_cache.create: page smaller than a cache line")
    (fun () ->
      ignore
        (Data_cache.create ~page_shift:4 ~org:Data_cache.Pipt ~size_bytes:1024
           ~line_bytes:32 ~ways:2 ()))

(* --- lockstep against the record-per-line reference model ------------- *)

type op =
  | Access of { space : int; va : int; pa : int; write : bool }
  | Flush_range of { space : int; lo : int; hi : int }
  | Flush_count of { space : int; lo : int; hi : int }
  | Flush_pa of int
  | Flush_all

let op_to_string = function
  | Access { space; va; pa; write } ->
      Printf.sprintf "access s%d va=%#x pa=%#x%s" space va pa
        (if write then " w" else "")
  | Flush_range { space; lo; hi } ->
      Printf.sprintf "flush_va_range s%d [%#x, %#x)" space lo hi
  | Flush_count { space; lo; hi } ->
      Printf.sprintf "flush_va_range_count s%d [%#x, %#x)" space lo hi
  | Flush_pa pfn -> Printf.sprintf "flush_pa_page %d" pfn
  | Flush_all -> "flush_all"

type geom = {
  org : Data_cache.org;
  policy : Replacement.t;
  line_shift : int;
  sets : int;
  ways : int;
  page_shift : int;
}

(* Physical lines the generated addresses can name, so residency can be
   compared exhaustively. *)
let pa_lines = 160

let gen_case =
  let open QCheck2.Gen in
  let* org = oneofl Data_cache.[ Vivt; Vipt; Pipt ] in
  let* policy = oneofl Replacement.[ Lru; Fifo; Random ] in
  let* line_shift = oneofl [ 4; 5 ] in
  (* 256 sets hold far more lines than a case fills, so short flushes
     meet low occupancy and take the valid-bit walk instead of the set
     walk *)
  let* sets = oneofl [ 1; 2; 8; 32; 256 ] in
  let* ways = oneofl [ 1; 2; 4 ] in
  (* from one line per page up to 64, past every set count above but
     256 *)
  let* page_shift = map (( + ) line_shift) (oneofl [ 0; 1; 3; 6 ]) in
  let line = 1 lsl line_shift in
  (* virtual lines near 0 and far up, so set-indexed flushes wrap *)
  let va =
    let* base = oneofl [ 0; 1 lsl 30 ] in
    let* l = int_bound 159 and* off = int_bound (line - 1) in
    return (((base + l) * line) + off)
  in
  let pa =
    let* l = int_bound (pa_lines - 1) and* off = int_bound (line - 1) in
    return ((l * line) + off)
  in
  let range =
    let* lo = va in
    let* len =
      frequency
        [
          (4, int_bound (4 * line));
          (4, int_bound ((sets + 2) * line * 2));
          (1, map (fun d -> -d) (int_bound (2 * line)));
        ]
    in
    return (lo, lo + len)
  in
  let space = int_bound 2 in
  let op =
    frequency
      [
        ( 12,
          let* space = space and* va = va and* pa = pa and* write = bool in
          return (Access { space; va; pa; write }) );
        ( 2,
          let* space = space and* lo, hi = range in
          return (Flush_range { space; lo; hi }) );
        ( 2,
          let* space = space and* lo, hi = range in
          return (Flush_count { space; lo; hi }) );
        ( 2,
          map
            (fun p -> Flush_pa p)
            (int_bound ((pa_lines lsr (page_shift - line_shift)) + 1)) );
        (1, return Flush_all);
      ]
  in
  let* ops = list_size (int_range 1 200) op in
  return ({ org; policy; line_shift; sets; ways; page_shift }, ops)

let print_case (g, ops) =
  Printf.sprintf "%s/%s line=%d sets=%d ways=%d page_shift=%d:\n  %s"
    (Data_cache.org_to_string g.org)
    (Replacement.to_string g.policy)
    (1 lsl g.line_shift) g.sets g.ways g.page_shift
    (String.concat "\n  " (List.map op_to_string ops))

let prop_lockstep =
  QCheck2.Test.make ~count:300
    ~name:"data cache matches the record-per-line model" ~print:print_case
    gen_case (fun (g, ops) ->
      let line_bytes = 1 lsl g.line_shift in
      let size_bytes = g.sets * g.ways * line_bytes in
      let probe_t = Probe.create () and probe_m = Probe.create () in
      let t =
        Data_cache.create ~policy:g.policy ~probe:probe_t
          ~page_shift:g.page_shift ~org:g.org ~size_bytes ~line_bytes
          ~ways:g.ways ()
      in
      let m =
        Ref_data_cache.create ~policy:g.policy ~probe:probe_m
          ~org:
            (match g.org with
            | Data_cache.Vivt -> Ref_data_cache.Vivt
            | Data_cache.Vipt -> Ref_data_cache.Vipt
            | Data_cache.Pipt -> Ref_data_cache.Pipt)
          ~size_bytes ~line_bytes ~ways:g.ways ()
      in
      let pair (a, b) = Printf.sprintf "(%d, %d)" a b in
      let stats hits misses wb syn probe =
        Printf.sprintf "hits=%d misses=%d wb=%d syn=%d occ=%d fills=%d purged=%d"
          hits misses wb syn
          (Probe.occupancy probe Probe.L1_cache)
          (Probe.fills probe Probe.L1_cache)
          (Probe.purged probe Probe.L1_cache)
      in
      let check i op what got want =
        if got <> want then
          QCheck2.Test.fail_reportf "op %d (%s): %s %s, model %s" i
            (op_to_string op) what got want
      in
      List.iteri
        (fun i op ->
          let got, want =
            match op with
            | Access { space; va; pa; write } ->
                ( string_of_int (Data_cache.access_bits t ~space ~va ~pa ~write),
                  string_of_int
                    (Ref_data_cache.access_bits m ~space ~va ~pa ~write) )
            | Flush_range { space; lo; hi } ->
                ( pair (Data_cache.flush_va_range t ~space ~lo ~hi),
                  pair (Ref_data_cache.flush_va_range m ~space ~lo ~hi) )
            | Flush_count { space; lo; hi } ->
                ( string_of_int (Data_cache.flush_va_range_count t ~space ~lo ~hi),
                  string_of_int
                    (Ref_data_cache.flush_va_range_count m ~space ~lo ~hi) )
            | Flush_pa pfn ->
                ( pair (Data_cache.flush_pa_page t ~pfn),
                  pair
                    (Ref_data_cache.flush_pa_page m ~pfn
                       ~page_shift:g.page_shift) )
            | Flush_all ->
                (pair (Data_cache.flush_all t), pair (Ref_data_cache.flush_all m))
          in
          check i op "returned" got want;
          check i op "stats"
            (stats (Data_cache.hits t) (Data_cache.misses t)
               (Data_cache.writebacks t)
               (Data_cache.synonyms_detected t)
               probe_t)
            (stats (Ref_data_cache.hits m) (Ref_data_cache.misses m)
               (Ref_data_cache.writebacks m)
               (Ref_data_cache.synonyms_detected m)
               probe_m);
          for pa_line = 0 to pa_lines - 1 do
            check i op
              (Printf.sprintf "resident copies of pa line %d" pa_line)
              (string_of_int (Data_cache.resident_copies_of_pa t ~pa_line))
              (string_of_int (Ref_data_cache.resident_copies_of_pa m ~pa_line))
          done;
          for pfn = 0 to (pa_lines lsr (g.page_shift - g.line_shift)) + 1 do
            check i op
              (Printf.sprintf "lines of frame %d" pfn)
              (string_of_int (Data_cache.frame_lines t ~pfn))
              (string_of_int
                 (Ref_data_cache.frame_lines m ~pfn ~page_shift:g.page_shift))
          done)
        ops;
      true)

(* --- allocation guardrails ------------------------------------------- *)

(* Minor-heap words allocated while [f] runs, net of what reading the
   counter costs. Gc.minor_words rather than quick_stat: on OCaml 5.1
   quick_stat's count only advances at minor collections. *)
let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let minor_words_in f =
  minor_words_during f -. minor_words_during (fun () -> ())

let l1 org policy =
  Data_cache.create ~policy ~org ~size_bytes:(64 * 1024) ~line_bytes:32
    ~ways:2 ()

(* Accesses over 16 pages with a page flush every 64, a page-replacement
   shaped loop. The second run replays the first's addresses, so every
   residency entry already exists and nothing may allocate. *)
let replacement_loop c () =
  for i = 0 to 4095 do
    let va = 0x40000 + ((i * 160) land 0xffff) in
    let pa = 0x900000 + ((i * 96) land 0xffff) in
    ignore (Data_cache.access_bits c ~space:(i land 1) ~va ~pa ~write:(i land 3 = 0));
    if i land 63 = 63 then begin
      let lo = 0x40000 + ((i land 0xf) lsl 12) in
      ignore (Data_cache.flush_va_range_count c ~space:0 ~lo ~hi:(lo + 4096))
    end
  done

let test_hot_paths_allocate_nothing () =
  List.iter
    (fun org ->
      List.iter
        (fun policy ->
          let c = l1 org policy in
          replacement_loop c ();
          let words = minor_words_in (replacement_loop c) in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s/%s words over 4096 accesses + 64 flushes"
               (Data_cache.org_to_string org)
               (Replacement.to_string policy))
            0. words)
        Replacement.[ Lru; Fifo; Random ])
    Data_cache.[ Vivt; Vipt; Pipt ]

let test_flush_all_allocates_its_pair () =
  let c = l1 Data_cache.Vivt Replacement.Lru in
  replacement_loop c ();
  let n = 100 in
  let words =
    minor_words_in (fun () ->
        for _ = 1 to n do
          replacement_loop c ();
          ignore (Sys.opaque_identity (Data_cache.flush_all c))
        done)
  in
  (* a pair is three words: header and two fields *)
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d flush_all calls <= 3 each" words n)
    true
    (words <= float_of_int (3 * n))

let suite =
  [
    Alcotest.test_case "hit after fill" `Quick test_hit_after_fill;
    Qprop.to_alcotest prop_fa_lru_model;
    Alcotest.test_case "writeback on dirty eviction" `Quick test_writeback;
    Alcotest.test_case "space tags prevent homonym hits" `Quick
      test_space_tag_homonyms;
    Alcotest.test_case "synonym detection across spaces" `Quick
      test_synonym_detection;
    Alcotest.test_case "no synonym within one space" `Quick
      test_no_synonym_same_space;
    Alcotest.test_case "PIPT ignores spaces" `Quick test_pipt_ignores_space;
    Alcotest.test_case "VIPT behaviour" `Quick test_vipt_same_index_tagged_physically;
    Alcotest.test_case "flush VA range" `Quick test_flush_va_range;
    Alcotest.test_case "flush physical page" `Quick test_flush_pa_page;
    Alcotest.test_case "flush all" `Quick test_flush_all;
    Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "create rejects sub-line pages" `Quick
      test_create_rejects_subline_page;
    Qprop.to_alcotest prop_lockstep;
    Alcotest.test_case "access and page flush allocate nothing" `Quick
      test_hot_paths_allocate_nothing;
    Alcotest.test_case "flush_all allocates only its pair" `Quick
      test_flush_all_allocates_its_pair;
  ]
