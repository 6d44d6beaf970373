(* Shape validators for the machine-readable artifacts exercised by
   `dune runtest`, kept JSON-library-free on purpose:

     validate_metrics METRICS.json      -- sasos-metrics/1 from `sasos report`
     validate_metrics --obs OBS.json    -- sasos-obs/1 from `sasos profile`
     validate_metrics --chrome T.json   -- Chrome trace_event from --chrome-out
     validate_metrics --same A B        -- byte equality (parity gate)
     validate_metrics --compare A B     -- line equality, volatile values masked
     validate_metrics --self-test       -- the validator validated: a crafted
                                           mismatch must produce a diagnostic
                                           naming path, line, expected, actual

   Every failure names the offending file; the two-file modes pinpoint the
   first diverging line with both sides quoted, so a parity break in CI
   reads as "what differs where", not just "files differ". *)

exception Failed of string
(* raised instead of exiting so --self-test (and any future caller) can
   assert on the diagnostic text; the main dispatch turns it into exit 1 *)

let fail msg = raise (Failed msg)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let count_occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let check_balanced path json =
  let braces c = count_occurrences json (String.make 1 c) in
  if braces '{' <> braces '}' then fail (path ^ ": unbalanced braces");
  if braces '[' <> braces ']' then fail (path ^ ": unbalanced brackets")

(* The experiments the bench report rule runs, in its --only order. *)
let report_rule_ids = [ "micro_ops"; "tag_overhead"; "cache_org" ]

let validate_metrics path =
  let json = read_all path in
  let n = List.length report_rule_ids in
  if not (contains json "\"schema\": \"sasos-metrics/1\"") then
    fail (path ^ ": missing schema marker");
  if not (contains json "\"jobs\": 2") then fail (path ^ ": jobs field not 2");
  if not (contains json "\"failed\": 0") then
    fail (path ^ ": expected zero failures");
  List.iter
    (fun id ->
      if not (contains json (Printf.sprintf "\"id\": %S" id)) then
        fail (path ^ ": missing experiment " ^ id))
    report_rule_ids;
  if count_occurrences json "\"status\": \"ok\"" <> n then
    fail (Printf.sprintf "%s: expected exactly %d ok statuses" path n);
  List.iter
    (fun field ->
      if count_occurrences json (Printf.sprintf "\"%s\": " field) <> n then
        fail (path ^ ": expected field on each experiment: " ^ field))
    [ "wall_ns"; "minor_words"; "major_words"; "output_bytes"; "index" ];
  (* the report rule runs with --profile, so each experiment must carry an
     embedded sasos-obs/1 attribution block *)
  if count_occurrences json "\"profile\": " <> n then
    fail (path ^ ": expected an embedded profile block on each experiment");
  if count_occurrences json "\"sasos-obs/1\"" <> n then
    fail (path ^ ": embedded profile blocks must carry the sasos-obs/1 schema");
  check_balanced path json;
  print_endline ("ok: " ^ path ^ " has the sasos-metrics/1 shape")

let validate_obs path =
  let json = read_all path in
  if not (contains json "\"sasos-obs/1\"") then
    fail (path ^ ": missing sasos-obs/1 schema marker");
  List.iter
    (fun field ->
      if not (contains json (Printf.sprintf "\"%s\"" field)) then
        fail (path ^ ": missing field: " ^ field))
    [
      "total_cycles"; "machines"; "ops"; "phases"; "samples"; "cpa_hist";
      "sample_every"; "ring_capacity";
    ];
  if not (contains json "\"op\"") then
    fail (path ^ ": expected at least one op row");
  check_balanced path json;
  print_endline ("ok: " ^ path ^ " has the sasos-obs/1 shape")

let validate_chrome path =
  let json = read_all path in
  if not (contains json "\"traceEvents\"") then
    fail (path ^ ": missing traceEvents array");
  if not (contains json "\"ph\":\"X\"") then
    fail (path ^ ": expected at least one complete (X) event");
  if not (contains json "\"ph\":\"M\"") then
    fail (path ^ ": expected metadata (M) events");
  check_balanced path json;
  print_endline ("ok: " ^ path ^ " is a Chrome trace_event file")

(* First line where the two line lists disagree: 1-based line number plus
   both sides ([None] = that file ended first). [String.split_on_char] is
   lossless, so byte-different files always have a diverging line. *)
let first_divergence la lb =
  let rec go i = function
    | [], [] -> None
    | x :: _, [] -> Some (i, Some x, None)
    | [], y :: _ -> Some (i, None, Some y)
    | x :: xs, y :: ys ->
        if x <> y then Some (i, Some x, Some y) else go (i + 1) (xs, ys)
  in
  go 1 (la, lb)

let divergence_diag a b (lineno, exp, act) =
  let show = function Some l -> Printf.sprintf "%S" l | None -> "<end of file>" in
  Printf.sprintf "first diverging line is %d:\n  expected (%s): %s\n  actual   (%s): %s"
    lineno a (show exp) b (show act)

(* Parity: the rendered text must be byte-identical to the committed
   golden copy, and across job counts. On a break, point at the first
   diverging line. *)
let validate_same a b =
  let sa = read_all a and sb = read_all b in
  if sa <> sb then begin
    match
      first_divergence
        (String.split_on_char '\n' sa)
        (String.split_on_char '\n' sb)
    with
    | Some d ->
        fail
          (Printf.sprintf "%s and %s differ (parity broken); %s" a b
             (divergence_diag a b d))
    | None -> fail (Printf.sprintf "%s and %s differ" a b)
  end;
  print_endline (Printf.sprintf "ok: %s and %s are byte-identical" a b)

(* Keys whose values legitimately vary between runs of the same
   experiment set: timing, GC counters and the worker count. Everything
   else in sasos-metrics/1 must agree line for line. *)
let volatile_keys =
  [
    "\"wall_ns\""; "\"total_wall_ns\""; "\"minor_words\""; "\"major_words\"";
    "\"promoted_words\""; "\"jobs\"";
  ]

let starts_at s i prefix =
  i + String.length prefix <= String.length s
  && String.sub s i (String.length prefix) = prefix

(* [line] with the value after every volatile key replaced by [_]:
   ["wall_ns": 12] and ["wall_ns":0] both read ["wall_ns":_]. Only the
   value is masked, so the rest of the line — a one-line embedded profile
   block carries a ["wall_ns"] of its own — is still compared. *)
let mask_volatile line =
  let n = String.length line in
  let buf = Buffer.create n in
  let rec skip p i = if i < n && p line.[i] then skip p (i + 1) else i in
  let space c = c = ' ' in
  let number = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go i =
    if i < n then
      match List.find_opt (starts_at line i) volatile_keys with
      | None ->
          Buffer.add_char buf line.[i];
          go (i + 1)
      | Some k ->
          Buffer.add_string buf k;
          let j = skip space (i + String.length k) in
          if j < n && line.[j] = ':' then begin
            Buffer.add_string buf ":_";
            go (skip number (skip space (j + 1)))
          end
          else go (i + String.length k)
  in
  go 0;
  Buffer.contents buf

let lines_of s = String.split_on_char '\n' s |> List.map mask_volatile

let validate_compare a b =
  (match first_divergence (lines_of (read_all a)) (lines_of (read_all b)) with
  | Some d ->
      fail
        (Printf.sprintf "%s and %s diverge with volatile values masked; %s" a
           b (divergence_diag a b d))
  | None -> ());
  print_endline
    (Printf.sprintf "ok: %s and %s agree with volatile values masked" a b)

(* The validator validated: craft mismatches and assert the diagnostics
   carry everything a reader needs — both paths, the line number, and
   both line bodies. Run under `dune runtest` so a regression to a bare
   "files differ" fails the build. *)
let self_test () =
  let write name contents =
    let f = Filename.temp_file name ".txt" in
    let oc = open_out_bin f in
    output_string oc contents;
    close_out oc;
    f
  in
  let with_pair ca cb k =
    let a = write "vm_a" ca and b = write "vm_b" cb in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove a;
        Sys.remove b)
      (fun () -> k a b)
  in
  let expect_diag what v needles =
    match v () with
    | () -> fail (Printf.sprintf "self-test: %s: mismatch not detected" what)
    | exception Failed msg ->
        List.iter
          (fun n ->
            if not (contains msg n) then
              fail
                (Printf.sprintf "self-test: %s: diagnostic %S lacks %S" what
                   msg n))
          needles
  in
  (* crafted mid-file mismatch: --same names path, line 2, both bodies *)
  with_pair "alpha\nbeta\ngamma\n" "alpha\nbita\ngamma\n" (fun a b ->
      expect_diag "--same mid-file"
        (fun () -> validate_same a b)
        [ a; b; "line is 2"; "\"beta\""; "\"bita\"" ]);
  (* truncation: the shorter side reads <end of file> *)
  with_pair "alpha\nbeta" "alpha" (fun a b ->
      expect_diag "--same truncated"
        (fun () -> validate_same a b)
        [ a; b; "line is 2"; "\"beta\""; "<end of file>" ]);
  (* --compare masks volatile values but diagnoses real divergence the
     same way *)
  with_pair "x 1\n\"wall_ns\": 5\ny 2\n" "x 1\n\"wall_ns\": 9\ny 2\n"
    (fun a b -> validate_compare a b);
  (* a volatile key masks only its own value: a one-line profile block
     that differs elsewhere must still be caught *)
  let profile cycles wall =
    Printf.sprintf
      "{\n  \"profile\": {\"total_cycles\":%d,\"wall_ns\":%d,\"ops\":[]},\n}\n"
      cycles wall
  in
  with_pair (profile 556657 0) (profile 556657 31) (fun a b ->
      validate_compare a b);
  with_pair (profile 556657 0) (profile 999999 0) (fun a b ->
      expect_diag "--compare inside a volatile line"
        (fun () -> validate_compare a b)
        [ a; b; "line is 2"; "556657"; "999999" ]);
  with_pair "x 1\ny 2\n" "x 1\ny 3\n" (fun a b ->
      expect_diag "--compare"
        (fun () -> validate_compare a b)
        [ a; b; "line is 2"; "\"y 2\""; "\"y 3\"" ]);
  (* identical files still pass *)
  with_pair "alpha\n" "alpha\n" (fun a b -> validate_same a b);
  print_endline
    "ok: mismatch diagnostics name path, line, expected and actual"

let () =
  try
    match Array.to_list Sys.argv with
    | [ _; "--obs"; path ] -> validate_obs path
    | [ _; "--chrome"; path ] -> validate_chrome path
    | [ _; "--same"; a; b ] -> validate_same a b
    | [ _; "--compare"; a; b ] -> validate_compare a b
    | [ _; "--self-test" ] -> self_test ()
    | [ _; path ] -> validate_metrics path
    | _ ->
        fail
          "usage: validate_metrics \
           [--obs|--chrome|--same|--compare|--self-test] FILE..."
  with Failed msg ->
    prerr_endline ("metrics validation failed: " ^ msg);
    exit 1
