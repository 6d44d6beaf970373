(** Deterministic pseudo-random number generator.

    A small, fast xorshift64* generator with an explicit state, so that every
    simulation in this repository is reproducible from a seed and independent
    of the global [Random] state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Two generators created with the
    same seed produce identical streams. A zero seed is remapped internally
    (xorshift requires a non-zero state). *)

val copy : t -> t
(** Independent copy sharing no state with the original. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val bits64 : t -> int64
(** 64 uniformly random bits. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on []. *)

val split : t -> t
(** A new generator seeded from the current stream; advancing either
    afterwards does not affect the other. *)

(** Allocation-free splitmix-style generator over a bare [int] state.

    Unlike {!t} (whose state is a boxed [int64], so every step allocates),
    the state here is a single immediate integer the caller stores in a
    mutable field. Used by the replacement-policy Random victim draw so
    eviction stays on the zero-allocation fast path; the int-lane caches
    and their test-side reference model seed it identically, so both draw
    the same victims. *)
module Split : sig
  val init : int -> int
  (** Initial state from a seed (the sign bit is masked off). Equal seeds
      give equal sequences. *)

  val next : int -> int
  (** Advance the state by the splitmix Weyl increment. *)

  val draw : int -> bound:int -> int
  (** Uniform-ish value in [0, bound) mixed from the state. The caller
      steps with {!next} first, then draws: two draws from the same state
      are equal by design. *)
end
