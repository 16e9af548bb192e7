(** The Control Data Flow Graph.

    Nodes are operations; every node produces at most one value, so a data
    edge is simply "consumer input port [i] reads producer [id]". The C
    memory is modelled as the {e statespace} (paper Section IV): a family of
    named regions, each accessed through the primitive nodes [Fe] (fetch),
    [St] (store) and [Del] (delete) of paper Fig. 2. Statespace order is
    made explicit by threading {e tokens}: [Ss_in] produces the initial
    token of a region, [St]/[Del] consume and produce tokens, [Fe] consumes
    a token without producing one (fetches commute). Anti-dependences
    (a store may not overtake earlier fetches of the same token) are kept as
    explicit order-only edges. *)

type id = int

module Id_set : Set.S with type elt = id
module Id_map : Map.S with type key = id

type kind =
  | Const of int
  | Binop of Op.binop
  | Unop of Op.unop
  | Mux  (** inputs [cond; if_true; if_false]; cond <> 0 selects if_true *)
  | Ss_in of string  (** initial statespace token of a region *)
  | Ss_out of string  (** final statespace token of a region *)
  | Fe of string  (** inputs [token; offset]; produces the fetched value *)
  | St of string  (** inputs [token; offset; value]; produces a token *)
  | Del of string  (** inputs [token; offset]; produces a token *)

type node = {
  id : id;
  kind : kind;
  inputs : id array;
  order_after : id list;  (** extra nodes that must execute before this one *)
}

type region_info = { size : int option; implicit : bool }

type t

exception Invalid of string
(** Raised by {!validate} and by the checks every mutation makes (arity,
    references, a frozen graph). *)

val create : string -> t
(** [create name] is an empty graph for function [name]. *)

val name : t -> string

(** {2 Regions} *)

val declare_region : t -> string -> region_info -> unit
val region_info : t -> string -> region_info option
val regions : t -> (string * region_info) list
(** Sorted by region name. *)

(** {2 Construction} *)

val add : t -> kind -> id list -> id
(** [add g kind inputs] adds a node. Checks input arity for [kind].
    @raise Invalid on arity mismatch or dangling input id. *)

val add_order : t -> id -> after:id -> unit
(** [add_order g n ~after:m]: node [n] must execute after node [m]. *)

val set_output : t -> string -> id -> unit
(** Registers a named value output (e.g. the function result). *)

val outputs : t -> (string * id) list
(** Named value outputs, sorted by name. *)

(** {2 Mutation (used by transformation passes)} *)

val set_inputs : t -> id -> id list -> unit
val replace_uses : t -> id -> by:id -> unit
(** Rewrites every data input, order edge and named output that references
    the first node to reference [by] instead. The use/def index lists the
    affected consumers directly, and their data-use entries are appended
    to [by]'s, so the cost follows the first node's data degree, not
    [by]'s (order edges still cost their degree on both sides). *)

val remove : t -> id -> unit
(** Removes a node. @raise Invalid if the node still has uses. *)

val remove_order : t -> id -> after:id -> unit
(** [remove_order g n ~after:m] deletes the order-only edge that makes [n]
    execute after [m]; a no-op when no such edge exists (the graph is not
    touched and the topo-order cache stays valid). Stamps the generation
    counter and the dirty journal exactly like {!add_order}. The caller is
    responsible for the edge being semantically removable. *)

val drop_order_references : t -> id -> unit
(** Removes the node from every other node's order-after list. Used when a
    fetch is forwarded away: the anti-dependences that protected the read
    vanish with it (whereas {!replace_uses} would re-point them, inventing
    an ordering constraint on the forwarded value). *)

(** {2 Access} *)

val mem : t -> id -> bool
val node : t -> id -> node
val kind : t -> id -> kind
val inputs : t -> id -> id list
val order_after : t -> id -> id list
val preds : t -> id -> id list
(** Data inputs followed by order-only predecessors (with duplicates). *)

val arity_of : t -> id -> int
(** [arity (kind g id)] without materialising the kind twice. O(1). *)

val input : t -> id -> int -> id
(** [input g id port] is the producer read by input [port] — the
    allocation-free point query behind {!inputs}.
    @raise Invalid when [port >= arity_of g id]. *)

val iter_preds : t -> id -> (id -> unit) -> unit
(** Applies the callback to every predecessor (data inputs in port order,
    then order-only edges, duplicates included) without building the
    {!preds} list. *)

val iter_ids : t -> (id -> unit) -> unit
(** Iterates live ids in ascending order without materialising {!node}
    records or the {!node_ids} list. *)

val id_bound : t -> id
(** One past the largest id ever allocated. Ids are never reused (removed
    slots are tombstoned), so an array of size [id_bound g] can be indexed
    by any id the graph or its journal has ever handed out. *)

val node_ids : t -> id list
(** All node ids, ascending. *)

val node_count : t -> int
val iter : t -> (node -> unit) -> unit
(** Iterates in ascending id order. *)

val fold : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val consumers : t -> (id, (id * int) list) Hashtbl.t
(** Snapshot reverse index: producer id -> [(consumer id, input port)].
    Order-only edges are not included. Prefer {!consumers_of} for point
    queries: the snapshot goes stale as soon as the graph mutates. *)

val consumers_of : t -> id -> (id * int) list
(** Live [(consumer, input port)] list of one producer, ascending, read
    straight from the incrementally maintained use/def index. O(degree):
    one list cell per use; only the entries appended since the list was
    last put in order are sorted (in a private copy — readers never
    write). *)

val iter_consumers : t -> id -> (id -> int -> unit) -> unit
(** [iter_consumers g p f] calls [f consumer port] for every data use of
    [p], in the order of {!consumers_of}, without building the list (and
    without allocating, unless [p]'s list holds unsorted appends). [f]
    must not change [p]'s uses; adding or removing order edges is fine. *)

val data_use_count : t -> id -> int
(** Number of data uses ([List.length (consumers_of g id)]). O(1). *)

val sole_consumer : t -> id -> id
(** The consumer reading the only data use of a node, or [-1] when the
    node has no data use or several. O(1), allocation-free. *)

val order_successors : t -> id -> id list
(** Nodes whose [order_after] list references the given node (the reverse
    of {!order_after}), ascending. O(degree), no sorting. *)

val iter_order_successors : t -> id -> (id -> unit) -> unit
(** {!order_successors} without building the list. The callback must not
    change the node's order successors. *)

val use_count : t -> id -> int
(** Number of data uses plus named-output references (order edges do not
    count as uses for liveness). O(1): two index lookups. *)

val ss_in_of : t -> string -> id option
(** The [Ss_in] node of a region, if present. *)

val ss_out_of : t -> string -> id option

(** {2 Structure} *)

val topo_order : t -> id list
(** Topological order over data and order edges, ties broken by ascending
    id (deterministic). The order is cached and stamped with the graph's
    generation counter, so consecutive calls without intervening mutation
    are O(1). @raise Invalid on a cycle. *)

val generation : t -> int
(** Monotone counter bumped by every structural mutation ([add],
    [set_inputs], [replace_uses], [remove], [set_output], order-edge
    changes), so any fact read off the graph stays valid while it is
    unchanged. Stamps the topo-order cache and {!Transform.Reassoc}'s
    per-run record of examined chain roots. *)

val drain_dirty : t -> id list * id list
(** Returns and clears the mutation journal as [(def_dirty, use_dirty)],
    each an ascending list without duplicates: nodes whose own definition
    changed (inputs, order edges, existence) and nodes that lost a use (a
    consumer was rewired or removed). The worklist pass engine drains this
    after every rewrite to decide what to re-examine; ids may reference
    since-removed nodes, so filter with {!mem}. Marking is O(1) (a flag
    byte per id); draining costs O(k log k) for k marked ids. *)

val clear_dirty : t -> unit
(** Empties the mutation journal exactly as {!drain_dirty} does, without
    sorting the marked ids or building the lists. O(k) for k marked ids,
    allocation-free. *)

val index_errors : t -> string list
(** Recomputes the use/def index from scratch and compares it with the
    incrementally maintained one, returning every divergence found (empty
    when consistent). The index is this module's own bookkeeping, not a
    property of the program, so {!check_diags} and {!validate} leave it
    out. The single implementation behind {!check_index}, the
    verifier's ["cdfg.index-divergence"] rule
    ([Fpfa_analysis.Verify.structure]) and the index-invariant tests. *)

val check_index : t -> unit
(** [index_errors], raising on the first divergence.
    @raise Invalid on any divergence. *)

val depth : t -> (id -> int)
(** Longest-path depth of each node (sources at 0), over data + order
    edges. *)

(** {2 Structure rules}

    One checker states every structure invariant. {!validate} raises its
    first finding; the [lib/analysis] verifier reports all of them. Arity
    is not among the rules: {!add} and {!set_inputs} enforce it when an
    edge is made, and the arena stores exactly [arity kind] inputs. *)

val check_diags : t -> Fpfa_diag.Diag.t list
(** Every structure violation as a diagnostic, in one scan of the arena:
    per live node (in ascending id order) data and order references that
    resolve (["cdfg.dangling-ref"]), value ports fed by values and token
    ports by tokens (["cdfg.port-type"]) of the node's own region
    (["cdfg.token-region"]), and a declared region
    (["cdfg.region-undeclared"]); then named outputs bound to live value
    nodes (["cdfg.dangling-ref"], ["cdfg.output-invalid"]), at most one
    [Ss_in] and one [Ss_out] per region (["cdfg.region-duplicate-ss"]),
    and acyclicity (["cdfg.cycle"], skipped while a dangling reference
    is reported, and always last). Empty when the graph is well formed.
    Node-anchored findings carry the node id. The use/def index is not
    checked here; see {!index_errors}. *)

val check_local_diags : t -> Id_set.t -> Fpfa_diag.Diag.t list
(** The per-node rules of {!check_diags} on the live members of a set,
    plus the named outputs bound to a member. O(set size x degree): the
    incremental check of the pass engine's verify hook. The whole-graph
    rules (acyclicity, duplicate [Ss_in]/[Ss_out]) are not re-checked. *)

val validate : t -> unit
(** {!check_diags}, raising the first finding.
    @raise Invalid with its message when the graph breaks a rule. *)

val freeze : t -> unit
(** Makes the graph immutable: every subsequent mutation raises {!Invalid}.
    Freezing first fills the topo-order cache, so on a frozen graph every
    accessor — including {!topo_order} — is a pure read. That is the
    cross-domain sharing contract: a frozen graph may be read from several
    domains concurrently without copying. Freezing also drops the spare
    adjacency arrays kept for later mutations. Idempotent.
    @raise Invalid on a cyclic graph (the cache cannot be filled). *)

val frozen : t -> bool

val copy : t -> t
(** Independent mutable copy (never frozen, journal empty, generation 0;
    a valid topo cache is carried over). Reads the source only, even when
    it is frozen. *)

(** {2 Statistics} *)

type stats = {
  total : int;
  consts : int;
  fetches : int;
  stores : int;
  deletes : int;
  muxes : int;
  multiplies : int;
  adds : int;  (** Add + Sub *)
  other_alu : int;
  ss_nodes : int;  (** Ss_in + Ss_out *)
  critical_path : int;  (** longest chain length, in nodes *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val produces_token : kind -> bool
val produces_value : kind -> bool

val arity : kind -> int
(** Number of data inputs each node kind takes (the invariant {!add} and
    {!set_inputs} enforce). *)

val token_region : t -> id -> string option
(** The region whose token the node produces ([Ss_in]/[St]/[Del]), [None]
    for value-producing and token-consuming-only kinds. *)
