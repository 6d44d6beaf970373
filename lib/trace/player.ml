open Sasos_addr
open Sasos_os

type error = { at : int; event : Event.t; reason : string }

exception Bad of string

let replay trace sys =
  let domains : Pd.t option array ref = ref (Array.make 8 None) in
  let segments : Segment.t option array ref = ref (Array.make 8 None) in
  let npd = ref 0 and nseg = ref 0 in
  let grow arr n = if n >= Array.length !arr then begin
      let bigger = Array.make (2 * (n + 1)) None in
      Array.blit !arr 0 bigger 0 (Array.length !arr);
      arr := bigger
    end
  in
  let pd i =
    if i < 0 || i >= !npd then raise (Bad (Printf.sprintf "unknown domain %d" i));
    match !domains.(i) with
    | Some d -> d
    | None -> raise (Bad (Printf.sprintf "domain %d was destroyed" i))
  in
  let seg i =
    if i < 0 || i >= !nseg then
      raise (Bad (Printf.sprintf "unknown segment %d" i));
    match !segments.(i) with
    | Some s -> s
    | None -> raise (Bad (Printf.sprintf "segment %d was destroyed" i))
  in
  let va_of s off =
    let sg = seg s in
    if off < 0 || off >= Segment.size_bytes sg then
      raise (Bad (Printf.sprintf "offset %d outside segment %d" off s));
    sg.Segment.base + off
  in
  let outcomes = ref [] in
  (* Segment sizes and alignments, charge amounts and which domain is
     running are checked by the machine, which refuses a bad one with
     Invalid_argument: for those three event kinds the refusal is the
     trace's error, not a crash. *)
  let step event =
    match (event : Event.t) with
    | Event.New_domain ->
        grow domains !npd;
        !domains.(!npd) <- Some (System_ops.new_domain sys);
        incr npd
    | Event.Destroy_domain { pd = d } -> (
        match System_ops.destroy_domain sys (pd d) with
        | () -> !domains.(d) <- None
        | exception Invalid_argument reason -> raise (Bad reason))
    | Event.New_segment { pages; align_shift; name } -> (
        match System_ops.new_segment sys ~name ?align_shift ~pages () with
        | s ->
            grow segments !nseg;
            !segments.(!nseg) <- Some s;
            incr nseg
        | exception Invalid_argument reason -> raise (Bad reason))
    | Event.Destroy_segment { seg = s } ->
        System_ops.destroy_segment sys (seg s);
        !segments.(s) <- None
    | Event.Attach { pd = d; seg = s; rights } ->
        System_ops.attach sys (pd d) (seg s) rights
    | Event.Detach { pd = d; seg = s } -> System_ops.detach sys (pd d) (seg s)
    | Event.Grant { pd = d; seg = s; off; rights } ->
        System_ops.grant sys (pd d) (va_of s off) rights
    | Event.Protect_all { seg = s; off; rights } ->
        System_ops.protect_all sys (va_of s off) rights
    | Event.Protect_segment { pd = d; seg = s; rights } ->
        System_ops.protect_segment sys (pd d) (seg s) rights
    | Event.Switch { pd = d } -> System_ops.switch_domain sys (pd d)
    | Event.Access { kind; seg = s; off } ->
        outcomes := System_ops.access sys kind (va_of s off) :: !outcomes
    | Event.Unmap { seg = s; page } ->
        let sg = seg s in
        if page < 0 || page >= sg.Segment.pages then
          raise (Bad (Printf.sprintf "page %d outside segment %d" page s));
        System_ops.unmap_page sys (Segment.first_vpn sg + page)
    | Event.Charge { cycles; page_ins; page_outs } -> (
        try System_ops.charge_external sys ~page_ins ~page_outs ~cycles ()
        with Invalid_argument reason -> raise (Bad reason))
  in
  (* When a collector is ambient, each replayed event becomes a phase span
     named after its keyword; with_phase is exception-safe, so a Bad event
     still closes its span before the error propagates. *)
  let obs = Sasos_obs.Obs.ambient () in
  let step event =
    if Sasos_obs.Obs.enabled obs then
      Sasos_obs.Obs.with_phase obs ("trace:" ^ Event.label event) (fun () ->
          step event)
    else step event
  in
  let rec go i = function
    | [] -> Ok (List.rev !outcomes)
    | event :: rest -> begin
        match step event with
        | () -> go (i + 1) rest
        | exception Bad reason -> Error { at = i; event; reason }
      end
  in
  go 0 trace

let replay_exn trace sys =
  match replay trace sys with
  | Ok outcomes -> outcomes
  | Error { at; event; reason } ->
      invalid_arg
        (Printf.sprintf "Player.replay: event %d (%s): %s" at
           (Event.to_line event) reason)
