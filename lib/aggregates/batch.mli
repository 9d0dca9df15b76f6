(** Batch synthesis: from a learning task to its aggregate batch (Section 2).
    The batch sizes these produce are the Figure 5 quantities. *)

open Relational

type t = { name : string; aggregates : Spec.t list }

val size : t -> int

val covariance : Feature.t -> t
(** Section 2.1: COUNT, SUM(Xi), SUM(Xi*Xj) over numeric features, plus the
    group-by counts/sums encoding all categorical interactions sparsely. *)

val thresholds_for : Database.t -> string -> int -> float list
(** Equi-width threshold candidates for a continuous attribute, from its
    observed range in the base relations. *)

val decision_node :
  ?db:Database.t -> ?thresholds:(string * float list) list -> Feature.t -> t
(** Section 2.2: the variance triples (SUM(y^2), SUM(y), COUNT) per
    candidate split — threshold filters for continuous features, grouped
    triples for categorical ones. Thresholds come from [thresholds] when
    given (a feature it does not list gets none), else from [db], else
    1..[thresholds_per_feature]. *)

val variance_triple :
  response:string ->
  ?filter:Predicate.t ->
  group_by:string list ->
  string ->
  Spec.t list
(** [variance_triple ~response ~group_by suffix] is SUM(y^2), SUM(y), COUNT
    with ids [sum_y2^suffix], [sum_y^suffix], [count^suffix]. *)

val threshold_suffix : string -> int -> string
(** Id suffix of the triple under the j-th threshold filter of a feature. *)

val category_suffix : string -> string
(** Id suffix of the triple grouped by a categorical feature. *)

val total_suffix : string
(** Id suffix of a tree node's unsplit totals (not part of {!decision_node}). *)

val mutual_information : string list -> t
(** COUNT plus all marginal and pairwise joint counts over the attributes
    (model selection / Chow-Liu trees). *)

val kmeans : Feature.t -> t
(** Rk-means-style sufficient statistics: COUNT, per-dimension sums, and
    categorical frequency vectors. *)

val eval_flat : Relation.t -> t -> (string * Spec.result) list
(** Naive evaluation of the whole batch over a materialised data matrix. *)

val pp : Format.formatter -> t -> unit

val fingerprint : t -> int
(** Order-sensitive content fingerprint of the batch (name plus every
    aggregate's {!Spec.canonical} folded through [Util.Checksum.crc32]);
    non-negative and stable across processes. Cache key material. *)

val covariance_numeric : string list -> t
(** The numeric part of {!covariance} over an explicit feature list: COUNT,
    SUM(x) and SUM(x*y) only — the batch shape a covariance-maintaining
    serving cache can refresh without recomputation. *)
