(* What every workload hands the main program in bench.ml. *)

type pass = {
  seconds : float;  (** the timed region *)
  pieces : (string * float) list;
      (** the timed region split into named pieces, each timed on its own
          (one piece, the whole pass, when it cannot be split) *)
  attempted : int;  (** operations attempted (see README.md per workload) *)
  failed : int;
  digest : string;  (** MD5 of the simulated output *)
  counts : (string * int) list;
      (** simulated work that must repeat exactly between passes *)
}

type traced = {
  total : float;  (** the traced counterpart of [pass.seconds] *)
  coverage : float;  (** the share of [total] per-layer spans account for *)
  same : pass;  (** same-work evidence: digest and counts *)
  layers : (string * float) list;  (** per-layer metrics, by catalog name *)
}

type t = {
  inputs : (string * string) list;  (** resolved inputs, for the manifest *)
  setup : unit -> unit;
      (** the work before the timed region; [untraced] and [traced] use
          what it built *)
  untraced : unit -> pass;  (** one pass; called until the run's time is up *)
  min_passes : int;
  max_passes : int;
  same_each_pass : bool;
      (** every pass repeats the same work, so all must agree; otherwise
          each pass continues where the last one stopped *)
  reference_pass : int;
      (** index of the untraced pass whose digest and counts the traced
          pass must reproduce *)
  traced : unit -> traced;
}

let time f =
  let t0 = Pb.now_ns () in
  let r = f () in
  (r, Pb.since t0)

(* Per-operation costs of wrapped machines: mean host time per call and
   the call counts, plus the mean cost of building one machine. *)
let machine_layers (c : Timed_sys.counters) ~creates ~create_s =
  let mean i scale =
    if c.Timed_sys.calls.(i) = 0 then 0.0
    else
      float_of_int c.Timed_sys.ns.(i)
      /. float_of_int c.Timed_sys.calls.(i)
      /. scale
  in
  ( "machine.create_us",
    if creates = 0 then 0.0 else create_s *. 1e6 /. float_of_int creates )
  :: ("machine.calls.create", float_of_int creates)
  :: List.concat
       (Array.to_list
          (Array.mapi
             (fun i op ->
               let timed =
                 if op = "over_allow" then ("machine.over_allow_us", mean i 1e3)
                 else ("machine." ^ op ^ "_ns", mean i 1.0)
               in
               [ timed; ("machine.calls." ^ op, float_of_int c.Timed_sys.calls.(i)) ])
             Timed_sys.op_names))

(* Simulated counters that explain run-time moves. *)
let hw_layers (m : Sasos.Metrics.t) =
  [
    ("hw.tlb_hit_ratio", Pb.ratio m.tlb_hits m.tlb_misses);
    ("hw.plb_hit_ratio", Pb.ratio m.plb_hits m.plb_misses);
    ("hw.pg_hit_ratio", Pb.ratio m.pg_hits m.pg_misses);
    ("os.kernel_entries", float_of_int m.kernel_entries);
    ("mem.page_faults", float_of_int m.page_faults);
    ("mem.page_outs", float_of_int m.page_outs);
  ]

let metrics_text (m : Sasos.Metrics.t) =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Sasos.Metrics.fields m))
