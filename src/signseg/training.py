"""Training loop: Adam with decoupled weight decay, step-decay learning
rate, stratified splits, early stopping on validation accuracy."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NonFiniteGradientError, ShapeError, check_integers
from .gradients import backward, check_label, soft_cross_entropy
from .keypoints import IsolatedSample
from .model import ModelConfig, ModelWeights, Workspace, forward_probs, init_weights, weights_to_dict
from .seeding import derive_rng, derive_seed


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 50
    lr0: float = 0.005
    lr_decay_every: int = 10
    lr_decay_factor: float = 0.1
    max_epochs: int = 200
    weight_decay: float = 1e-4
    beta1: float = 0.92
    beta2: float = 0.999
    adam_eps: float = 1e-8
    early_stop_patience: int = 20
    seed: int = 0

    def __post_init__(self):
        check_integers(self, ("batch_size", "lr_decay_every", "max_epochs", "early_stop_patience", "seed"))
        for name in ("lr0", "weight_decay", "adam_eps"):  # the other floats' ranges exclude NaN and infinity
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if self.lr_decay_every < 1:
            raise ConfigError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")
        if not 0 < self.lr_decay_factor <= 1:
            raise ConfigError(f"lr_decay_factor must be in (0, 1], got {self.lr_decay_factor}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.early_stop_patience < 1:
            raise ConfigError(f"early_stop_patience must be >= 1, got {self.early_stop_patience}")


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Step decay: lr0 * factor^(epoch // every)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


def split_dataset(
    samples: list[IsolatedSample], ratio: float, seed: int
) -> tuple[list[IsolatedSample], list[IsolatedSample]]:
    """Stratified split into (train, test) with `ratio` of each class in train.

    Every class with at least two samples lands in both partitions; a
    single-sample class goes to train with a warning. The split is a pure
    function of (samples, ratio, seed).
    """
    if not samples:
        raise ValueError("cannot split an empty dataset")
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    by_label: dict[int, list[int]] = {}
    for i, sample in enumerate(samples):
        by_label.setdefault(int(sample.label), []).append(i)
    rng = derive_rng(seed, "split")
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        members = by_label[label]
        if len(members) < 2:
            warnings.warn(f"class {label} has {len(members)} sample(s); keeping it in train only")
            train_idx.extend(members)
            continue
        perm = rng.permutation(len(members))
        n_test = int(round(len(members) * (1.0 - ratio)))
        n_test = min(max(n_test, 1), len(members) - 1)
        for j, p in enumerate(perm):
            (test_idx if j < n_test else train_idx).append(members[p])
    return [samples[i] for i in train_idx], [samples[i] for i in test_idx]


def carve_validation(
    samples: list[IsolatedSample], fraction: float = 0.1, seed: int = 0
) -> tuple[list[IsolatedSample], list[IsolatedSample]]:
    """Split a training set into (core, validation) stratified by class."""
    return split_dataset(samples, 1.0 - fraction, seed)


@dataclass
class AdamState:
    """First/second moment vectors (float64, in the layout of the flat
    parameter buffer) and the step counter; adam_step updates all three
    in place, as it does the parameters, and returns the state."""

    m: np.ndarray
    v: np.ndarray
    t: int


# Elements per block of the Adam update: its temporaries are float64 arrays
# of this length (64 KiB each) whatever the model's size, and a block's
# operands stay in cache across the elementwise passes made over them. At
# 64 KiB they stay under glibc's default 128 KiB mmap threshold, so they
# come from the heap: blocks of 256 KiB were mapped and unmapped on every
# step, and each step took hundreds of minor page faults.
ADAM_BLOCK = 1 << 13


def adam_step(
    params: ModelWeights,
    grads: ModelWeights,
    state: AdamState | None,
    lr: float,
    cfg: TrainConfig,
) -> AdamState:
    """One Adam update with bias correction and decoupled weight decay,
    in place.

    Decay shrinks the parameters by lr * weight_decay before the Adam
    update itself. params.flat is overwritten with the updated parameters,
    in its own dtype; grads are not mutated. The float64 moments are
    updated in place too: the returned state is `state` (a new one when
    it is None), with t advanced. A non-finite gradient raises
    NonFiniteGradientError before anything is written, so the parameters
    and the state are left as they were.
    """
    if grads.config != params.config:
        raise ShapeError("parameters and gradients have different configs")
    g = grads.flat
    # before any write, so an error leaves the state as it was; min and max
    # propagate NaN, and unlike isfinite(g) they allocate nothing model-sized
    if not (np.isfinite(g.min()) and np.isfinite(g.max())):
        named = weights_to_dict(grads)
        raise NonFiniteGradientError(next(k for k, a in named.items() if not np.all(np.isfinite(a))))
    if state is None:
        state = AdamState(m=np.zeros(g.size), v=np.zeros(g.size), t=0)
    _adam_update(params.flat, g, state, lr, cfg)
    return state


def _adam_update(p: np.ndarray, grad: np.ndarray, state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """The Adam update of the flat parameters `p`, in place, ADAM_BLOCK
    elements at a time. Advances state.t and updates state.m and state.v
    in place.

    Each block is the whole-buffer expression applied to its slices, in
    float64 and in the same operand order, so the result is bit-identical
    to it:

        p = p - lr * weight_decay * p  (when weight_decay)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p = p - lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    """
    state.t += 1
    c1, c2 = 1.0 - cfg.beta1**state.t, 1.0 - cfg.beta2**state.t
    for i in range(0, p.size, ADAM_BLOCK):
        b = slice(i, i + ADAM_BLOCK)
        pb, g = np.asarray(p[b], dtype=np.float64), np.asarray(grad[b], dtype=np.float64)
        m, v = state.m[b], state.v[b]
        if cfg.weight_decay:
            pb = pb - lr * cfg.weight_decay * pb
        m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
        p[b] = pb - lr * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    val_accuracy: float
    lr: float
    val_straddle_loss: float  # mean cross-entropy on straddling validation windows


@dataclass
class TrainHistory:
    records: list[EpochRecord]
    best_epoch: int  # -1 when no epoch ran


def _validate_samples(samples: list[IsolatedSample], cfg: ModelConfig, what: str) -> None:
    for i, s in enumerate(samples):
        if s.frames.shape != (cfg.window, cfg.input_dim):
            raise ShapeError(
                f"{what} sample {i} has shape {s.frames.shape}, expected ({cfg.window}, {cfg.input_dim})"
            )
        check_label(s.label, cfg.classes, f"{what} sample {i}")


# A straddling window keeps a sign's label when that sign fills at least this
# share of it; otherwise its target is uniform, whose top probability 1/C
# stays under the decoder's 0.51 threshold, so the window reads as Blank.
STRADDLE_MAJORITY = 0.7
# Among epochs tied on validation accuracy, a later one must cut the loss on
# straddling validation windows by more than this share to be preferred.
# Smaller gains come from steps at a learning rate decayed towards nothing,
# and counting them would keep resetting early stopping.
TIE_LOSS_MARGIN = 1e-3


def straddle_window(
    first: IsolatedSample, second: IsolatedSample, shift: int, classes: int
) -> tuple[IsolatedSample, np.ndarray]:
    """The window that starts `shift` frames into `first` and runs on into
    `second`, as seen at a sign boundary of a concatenated stream, with its
    training target.

    The target is the one-hot label of the sign filling at least
    STRADDLE_MAJORITY of the window, or uniform over `classes` when neither
    does. The returned sample carries the label of the larger part.
    """
    window = first.frames.shape[0]
    if second.frames.shape[0] != window:
        raise ShapeError(f"samples differ in length: {window} vs {second.frames.shape[0]}")
    if not 1 <= shift < window:
        raise ValueError(f"shift must be in [1, {window}), got {shift}")
    frames = np.concatenate([first.frames[shift:], second.frames[:shift]])
    major = first.label if 2 * shift <= window else second.label
    sample = IsolatedSample(frames, int(major))
    if max(window - shift, shift) / window >= STRADDLE_MAJORITY:
        target = np.zeros(classes)
        target[major] = 1.0
    else:
        target = np.full(classes, 1.0 / classes)
    return sample, target


def draw_straddles(
    samples: list[IsolatedSample], count: int, rng: np.random.Generator, classes: int
) -> list[tuple[IsolatedSample, np.ndarray]]:
    """`count` straddling windows, each cut across a random pair of samples
    of different classes at a random shift in [1, window - 1].

    Returns an empty list when no such window exists: no samples, fewer
    than two classes, or windows of one frame.
    """
    return _cut(samples, _draw_picks(samples, count, rng), classes)


def _draw_picks(samples: list[IsolatedSample], count: int, rng: np.random.Generator) -> np.ndarray:
    """draw_straddles' draws, without the windows: a (count, 3) array of
    (first, second, shift) rows, or (0, 3) when no window exists. Per
    window it draws the first sample, then the second from the other
    classes, then the shift."""
    labels = np.array([s.label for s in samples])
    window = samples[0].frames.shape[0] if samples else 0
    if len(np.unique(labels)) < 2 or window < 2:
        return np.empty((0, 3), dtype=np.intp)
    others = {label: np.flatnonzero(labels != label) for label in np.unique(labels)}
    picks = np.empty((count, 3), dtype=np.intp)
    for row in picks:
        a = int(rng.integers(len(samples)))
        candidates = others[labels[a]]
        row[:] = a, candidates[rng.integers(len(candidates))], rng.integers(1, window)
    return picks


def _cut(
    samples: list[IsolatedSample], picks: np.ndarray, classes: int
) -> list[tuple[IsolatedSample, np.ndarray | None]]:
    """The (sample, target) items that rows of picks name: (i, j, shift) is
    straddle_window(samples[i], samples[j], shift), and a shift of 0 is
    sample i itself, with target None."""
    return [
        (samples[i], None) if shift == 0 else straddle_window(samples[i], samples[j], shift, classes)
        for i, j, shift in picks.tolist()
    ]


def _epoch_items(train_set, order, straddle_rng, boundaries) -> np.ndarray:
    """One epoch's items as (first, second, shift) picks for _cut, 1.25
    times the training set; train() cuts each mini-batch's windows just
    before its backward call.

    Before boundary training starts: every training sample with its own
    label (shift 0), plus straddling windows worth a quarter of the set.
    After: a quarter of the samples, plus straddling windows worth the
    whole set. Samples are taken in the shuffled order; the items come in
    a seeded order. Without straddling windows (fewer than two classes)
    the epoch is the shuffled set.
    """
    n = len(train_set)
    quarter = (n + 3) // 4
    plain = order[:quarter] if boundaries else order
    straddles = _draw_picks(train_set, n + quarter - len(plain), straddle_rng)
    if not len(straddles):
        return np.column_stack([order, order, np.zeros_like(order)])
    items = np.concatenate([np.column_stack([plain, plain, np.zeros_like(plain)]), straddles])
    return items[straddle_rng.permutation(len(items))]


def _mean_loss(weights, items, scratch: Workspace | None = None) -> float:
    """Mean cross-entropy of (sample, target) items; 0.0 for none."""
    if not items:
        return 0.0
    probs = forward_probs(weights, [s.frames for s, _ in items], scratch=scratch)
    return soft_cross_entropy(probs, np.stack([t for _, t in items])) / len(items)


def train(
    train_set: list[IsolatedSample],
    val_set: list[IsolatedSample],
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    on_epoch=None,
) -> tuple[ModelWeights, TrainHistory]:
    """Train from a seeded init; return the best-validation weights.

    Training teaches the classifier both the isolated signs and the
    windows a sliding decoder meets at a sign boundary. A straddling
    window (straddle_window) is cut across two samples of different
    classes; its target is the sign filling at least STRADDLE_MAJORITY of
    it, otherwise the uniform distribution, which the decoder reads as
    Blank. Every epoch holds 1.25 times the training set. First, so that
    the signs are learnt: the whole set plus straddling windows worth a
    quarter of it. Then, for the boundaries: a quarter of the set plus
    straddling windows worth all of it. The switch comes after the first
    epoch with perfect validation accuracy, and at the latest with the
    first learning-rate decay.

    Per epoch: a seeded shuffle and seeded straddle draws, mini-batches of
    tcfg.batch_size (one backward call per batch, in float32 on the stored
    parameters, adding into one float64 sum, then averaged), one in-place
    adam_step per batch with float64 moments, then validation on the same
    float32 parameters. The run's one Workspace holds a chunk's
    activations for every backward call and both validation passes. An
    epoch draws its straddles up front but cuts each mini-batch's windows
    just before that batch's backward call, so at most one batch of them
    is alive, and none at validation. A copy of the parameters is
    kept whenever an epoch becomes the new best, and the best copy is
    returned.
    The best epoch has the highest accuracy on the clean validation
    samples; among epochs tied on it, the lowest loss on a fixed set of
    straddling validation windows, one per validation sample (a gain must
    exceed TIE_LOSS_MARGIN), which prefers a later epoch trained on
    boundaries. Stops early after early_stop_patience epochs without a
    new best. max_epochs=0 returns the initial weights and an empty
    history. Bit-reproducible for fixed (configs, data): shuffling and
    straddles draw from their own seeded streams.
    """
    if not train_set:
        raise ValueError("train_set must not be empty")
    if not val_set:
        raise ValueError("val_set must not be empty")
    _validate_samples(train_set, mcfg, "train")
    _validate_samples(val_set, mcfg, "validation")

    params = init_weights(mcfg, derive_seed(tcfg.seed, "init"))
    state: AdamState | None = None
    shuffle_rng = derive_rng(tcfg.seed, "shuffle")
    straddle_rng = derive_rng(tcfg.seed, "straddle")
    val_straddles = draw_straddles(
        val_set, len(val_set), derive_rng(tcfg.seed, "val-straddle"), mcfg.classes
    )

    records: list[EpochRecord] = []
    best: EpochRecord | None = None
    best_params = params
    boundaries = False
    grad_sum = ModelWeights(mcfg, np.zeros(params.flat.size))
    scratch = Workspace()  # one chunk's activations, reused by every backward and validation pass

    for epoch in range(tcfg.max_epochs):
        lr = lr_at_epoch(tcfg, epoch)
        order = shuffle_rng.permutation(len(train_set))
        items = _epoch_items(train_set, order, straddle_rng, boundaries)
        loss_sum = 0.0
        for start in range(0, len(items), tcfg.batch_size):
            samples, targets = zip(*_cut(train_set, items[start : start + tcfg.batch_size], mcfg.classes))
            grad_sum.flat.fill(0.0)
            loss_sum += backward(samples, params, targets, add_to=grad_sum, scratch=scratch)[1]
            grad_sum.flat /= len(samples)
            state = adam_step(params, grad_sum, state, lr, tcfg)
        loss = loss_sum / len(items)
        del samples, targets  # free the last mini-batch's straddling windows before validation
        val_acc = evaluate_isolated(params, val_set, scratch=scratch)
        record = EpochRecord(epoch, loss, val_acc, lr, _mean_loss(params, val_straddles, scratch))
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)
        boundaries = boundaries or val_acc == 1.0 or epoch + 1 >= tcfg.lr_decay_every
        if best is None or _better(record, best):
            best = record
            best_params = ModelWeights(mcfg, params.flat.copy())
        elif epoch - best.epoch >= tcfg.early_stop_patience:
            break
    best_epoch = -1 if best is None else best.epoch
    return best_params, TrainHistory(records, best_epoch)


def _better(record: EpochRecord, best: EpochRecord) -> bool:
    """Model selection: higher validation accuracy wins; a tie goes to a
    loss on straddling validation windows lower by more than
    TIE_LOSS_MARGIN of the best's."""
    if record.val_accuracy != best.val_accuracy:
        return record.val_accuracy > best.val_accuracy
    return record.val_straddle_loss < (1.0 - TIE_LOSS_MARGIN) * best.val_straddle_loss


def evaluate_isolated(
    weights: ModelWeights, samples: list[IsolatedSample], *, scratch: Workspace | None = None
) -> float:
    """Fraction of samples whose argmax class matches the label.

    `scratch` is forward_probs': train() passes the Workspace its backward
    calls keep, so validation allocates no activations; one-off callers,
    deep models above all, pass none."""
    if not samples:
        raise ValueError("cannot evaluate an empty sample list")
    probs = forward_probs(weights, [s.frames for s in samples], scratch=scratch)
    hits = sum(int(np.argmax(p)) == int(s.label) for p, s in zip(probs, samples))
    return hits / len(samples)


def history_to_csv(history: TrainHistory) -> str:
    lines = ["epoch,loss,val_accuracy,lr,val_straddle_loss"]
    for r in history.records:
        lines.append(f"{r.epoch},{r.loss!r},{r.val_accuracy!r},{r.lr!r},{r.val_straddle_loss!r}")
    return "\n".join(lines) + "\n"


@dataclass
class AblationRow:
    layers: int
    heads: int
    accuracies: dict[str, float | None]
    error: str | None = None

    @property
    def label(self) -> str:
        layer_word = "layer" if self.layers == 1 else "layers"
        head_word = "head" if self.heads == 1 else "heads"
        return f"{self.layers} {layer_word} with {self.heads} {head_word}"


def ablate(
    layer_choices: list[int],
    head_choices: list[int],
    datasets: list[tuple[str, list[IsolatedSample], list[IsolatedSample]]],
    base_mcfg: ModelConfig,
    tcfg: TrainConfig,
    val_fraction: float = 0.1,
) -> list[AblationRow]:
    """Accuracy grid over (layers, heads), layers-major.

    Each cell trains from scratch per dataset with a seed derived from
    (tcfg.seed, layers, heads, dataset), so a rerun reproduces every cell
    exactly. A head count that does not divide d_model records a config
    error in that row instead of aborting the grid.
    """
    if not layer_choices or not head_choices:
        raise ValueError("layer_choices and head_choices must not be empty")
    if not datasets:
        raise ValueError("need at least one dataset")
    prepared = []
    for di, (name, train_samples, test_samples) in enumerate(datasets):
        core, val = carve_validation(
            train_samples, val_fraction, derive_seed(tcfg.seed, "ablate-val", di)
        )
        prepared.append((name, core, val, test_samples))

    rows = []
    for layers in layer_choices:
        for heads in head_choices:
            accuracies: dict[str, float | None] = {}
            error = None
            try:
                mcfg = replace(base_mcfg, layers=layers, heads=heads)
            except ConfigError as exc:
                error = str(exc)
                accuracies = {name: None for name, *_ in prepared}
            else:
                for di, (name, core, val, test_samples) in enumerate(prepared):
                    cell_cfg = replace(tcfg, seed=derive_seed(tcfg.seed, "ablate", layers, heads, di))
                    weights, _ = train(core, val, mcfg, cell_cfg)
                    accuracies[name] = evaluate_isolated(weights, test_samples)
            rows.append(AblationRow(layers, heads, accuracies, error))
    return rows


def ablation_to_csv(rows: list[AblationRow], dataset_names: list[str]) -> str:
    """Accuracy table, one row per architecture, one percent column per
    dataset; config-error cells say so instead of a number."""
    lines = ["Model," + ",".join(dataset_names)]
    for row in rows:
        cells = []
        for name in dataset_names:
            acc = row.accuracies.get(name)
            cells.append("config-error" if acc is None else f"{acc * 100:.2f}")
        lines.append(f"{row.label}," + ",".join(cells))
    return "\n".join(lines) + "\n"
