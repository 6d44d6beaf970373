(** Perf-trend watchdog over committed [BENCH_*.json] files.

    Each benchmark commit leaves a numbered [BENCH_NNNN.json] in the
    repository root, so the name-sorted file list is a chronological
    performance trajectory. This module parses both bench schemas
    ([sasos-bench/1]: one flat result object; [sasos-bench/2]: a [rows]
    array of per-configuration results), folds them into named
    accesses/sec series — one per benchmark × configuration (backend,
    engine, policy, shards, cores) — renders the trajectory with
    sparklines,
    and fails when the newest point of any series dropped below
    [min_ratio] of that series' best earlier point. [sasos bench-diff]
    and the CI [bench-trend] job are thin wrappers over {!load_dir},
    {!check} and {!render}. *)

type point = {
  file : string;  (** the BENCH file the point came from *)
  rate : float;  (** accesses/sec *)
  alloc : float;  (** alloc words/access, 0 when absent *)
}

type series = {
  name : string;
      (** benchmark plus its configuration discriminators, e.g.
          ["hot_path backend=packed engine=scalar"] or
          ["scale shards=4"] *)
  points : point list;  (** chronological (BENCH-file name order) *)
}

val parse_file : file:string -> string -> (string * point) list
(** Extract [(series name, point)] pairs from one BENCH document.
    Unknown schemas yield [[]]; malformed JSON raises
    [Json.Parse_error]. *)

val of_files : (string * string) list -> series list
(** Fold [(file name, contents)] pairs — already in chronological
    order — into series sorted by name. *)

val scan_dir : string -> string list
(** The directory's [BENCH_*.json] file names, sorted (= chronological
    for the numbered naming convention). *)

val load_dir : string -> series list
(** {!scan_dir} + read + {!of_files}. *)

type failure = {
  f_series : string;
  last : float;  (** newest rate *)
  last_file : string;
  best : float;  (** best rate among the earlier points *)
  best_file : string;
  ratio : float;  (** [last /. best] *)
}

val check : min_ratio:float -> series list -> failure list
(** Series whose newest point fell below [min_ratio] of the best
    earlier point, in series-name order (so the head is the first
    diverging metric). Series with fewer than two points pass.
    @raise Invalid_argument when [min_ratio <= 0]. *)

val render : series list -> string
(** One line per series: run count, first/last rates, last-to-best
    ratio and a sparkline of the trajectory. *)

val render_failure : failure -> string
(** Human-readable one-line diagnostic naming the regressed series, the
    newest and best rates and the files they came from. *)

(** The minimal recursive-descent JSON reader the parser is built on
    (exposed for reuse in tests and tools). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val parse : string -> t
  (** @raise Parse_error on malformed input. *)

  val mem : string -> t -> t option
  val str : t -> string option
  val num : t -> float option
end
