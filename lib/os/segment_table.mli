(** Global segment allocator and lookup.

    Allocates segments at monotonically increasing virtual addresses (with a
    guard page between segments), so ranges are disjoint by construction and
    addresses are never reused after destruction — the SASOS discipline. *)

open Sasos_addr

type t

val create : Geometry.t -> t
(** An empty table. Live segments sit in flat int-array lanes sorted by
    base, so {!find_id_by_va} is a zero-allocation binary search and
    {!iter} runs in ascending base order. *)

val allocate : t -> ?name:string -> ?align_shift:int -> pages:int -> unit -> Segment.t
(** [align_shift] additionally aligns the base to [2^align_shift] bytes
    (needed when a coarse-grain PLB entry is to cover the whole segment,
    §4.3). @raise Invalid_argument if [pages <= 0], if [align_shift] is
    below the page shift or at least 61 (no such base fits below the
    2{^61} address limit), or if the segment does not fit in the address
    space left. *)

val destroy : t -> Segment.id -> Segment.t
(** Remove from the table; its address range is retired, never reallocated.
    @raise Not_found if unknown. *)

val find : t -> Segment.id -> Segment.t option
val find_by_va : t -> Va.t -> Segment.t option

val find_id_by_va : t -> Va.t -> int
(** The id of the live segment containing [va], or [-1]. Touches only
    int lanes and never allocates. *)

val live_count : t -> int
val iter : (Segment.t -> unit) -> t -> unit
