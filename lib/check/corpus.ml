open Sasos_addr
module Store = Sasos_trace.Store
module Player = Sasos_trace.Player
module Sys_select = Sasos_machine.Sys_select

let outcomes_string = function
  | [] -> "-"
  | outs ->
      String.concat ""
        (List.map
           (function Access.Ok -> "o" | Access.Protection_fault -> "f")
           outs)

let parse_outcomes = function
  | "-" -> Ok []
  | s ->
      let rec go acc i =
        if i >= String.length s then Ok (List.rev acc)
        else
          match s.[i] with
          | 'o' -> go (Access.Ok :: acc) (i + 1)
          | 'f' -> go (Access.Protection_fault :: acc) (i + 1)
          | c -> Error (Printf.sprintf "bad outcome char %C" c)
      in
      go [] 0

let save ~path ?note (geom : Op.geom) script ~expected =
  let header =
    String.concat "\n"
      ([
         "sasos-check counterexample";
         Printf.sprintf "geom domains=%d segments=%d pages-per-seg=%d"
           geom.Op.domains geom.Op.segments geom.Op.pages_per_seg;
       ]
      @ (match note with None -> [] | Some n -> [ "note: " ^ n ])
      @ [ "expect " ^ outcomes_string expected ])
  in
  Store.save path ~header (Op.to_events geom script)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let expect_of_header s =
  let prefix = "# expect " in
  String.split_on_char '\n' s
  |> List.find_map (fun line ->
         let line = String.trim line in
         if String.length line > String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
         then
           Some
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
         else None)

let load path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | contents -> begin
      match expect_of_header contents with
      | None -> Error (path ^ ": no '# expect' header line")
      | Some expect -> begin
          match parse_outcomes (String.trim expect) with
          | Error msg -> Error (path ^ ": " ^ msg)
          | Ok expected -> begin
              match Store.of_string contents with
              | Error msg -> Error (path ^ ": " ^ msg)
              | Ok events -> Ok (events, expected)
            end
        end
    end

(* At the process-global cores > 1, the recorded single-core expectations
   widen to the multicore mirror's permitted set: a stale outcome is
   accepted exactly where the replayed machine's purge policy entitles
   one (see Oracle.run_multi). The mirror's truth must still equal the
   header — drift there means the trace no longer encodes the script it
   was minimized from. *)
let multi_expected events ~expected =
  let cores = Sasos_smp.Smp.cores () in
  if cores < 2 then Ok (List.map (fun o -> (o, None)) expected)
  else
    match Op.of_events events with
    | Error msg -> Error msg
    | Ok (geom, script) ->
        let want =
          Oracle.run_multi
            ~seed:Sasos_os.Config.default.Sasos_os.Config.seed ~cores
            ~purge:(Sasos_smp.Smp.purge ())
            ~ipi_budget:(Sasos_smp.Smp.ipi_budget ())
            geom script
        in
        if
          List.length want = List.length expected
          && List.for_all2
               (fun w e -> Access.outcome_equal w.Oracle.truth e)
               want expected
        then Ok (List.map (fun w -> (w.Oracle.truth, w.Oracle.stale)) want)
        else Error "recorded outcomes diverge from the oracle truth"

let replay_events events ~expected =
  match multi_expected events ~expected with
  | Error msg -> Error msg
  | Ok want ->
  let check (name, variant) =
    let sys = Sys_select.make variant Sasos_os.Config.default in
    match Player.replay events sys with
    | Error { Player.at; event; reason } ->
        Some
          (Printf.sprintf "%s: replay failed at event %d (%s): %s" name at
             (Sasos_trace.Event.to_line event)
             reason)
    | Ok outcomes ->
        if List.length outcomes <> List.length want then
          Some
            (Printf.sprintf "%s: %d accesses replayed, %d expected" name
               (List.length outcomes) (List.length want))
        else begin
          let rec first_diff i got want =
            match (got, want) with
            | [], [] -> None
            | g :: got, (truth, stale) :: want ->
                let ok =
                  Access.outcome_equal g truth
                  ||
                  match stale with
                  | Some s -> Access.outcome_equal g s
                  | None -> false
                in
                if ok then first_diff (i + 1) got want
                else
                  Some
                    (Printf.sprintf
                       "%s: access %d diverges (got %s, oracle says %s)" name
                       i
                       (Format.asprintf "%a" Access.pp_outcome g)
                       (Format.asprintf "%a" Access.pp_outcome truth))
            | _ -> assert false
          in
          first_diff 0 outcomes want
        end
  in
  let rec go = function
    | [] -> Ok ()
    | m :: rest -> ( match check m with None -> go rest | Some e -> Error e)
  in
  go Sys_select.all

let replay_file path =
  match load path with
  | Error msg -> Error msg
  | Ok (events, expected) -> replay_events events ~expected
