"""Timing model: fetch bandwidth, dependences, bins, window behaviour."""

from helpers import frame_block, line_block
from repro.optimizer.optuop import LiveIn, OptUop
from repro.timing import PipelineModel, default_config
from repro.timing.pipeline import BranchEvent
from repro.uops import Uop, UopOp, UReg


class ScriptedFetcher:
    """Feeds a fixed list of blocks to the pipeline."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def next_block(self, cycle):
        if self.blocks:
            return self.blocks.pop(0)
        return None


def independent_alu(n):
    return [
        Uop(UopOp.ADD, dst=UReg(i % 4), src_a=UReg(i % 4), imm=1)
        for i in range(n)
    ]


def test_fetch_width_bounds_throughput():
    config = default_config()
    blocks = [line_block(independent_alu(8), config, pc=0x1000 + i * 64)
              for i in range(50)]
    result = PipelineModel(config).simulate(ScriptedFetcher(blocks))
    # 400 uops at 8/cycle needs at least 50 fetch cycles.
    assert result.bins["icache"] == 50
    assert result.uops_fetched == 400


def test_serial_chain_bounds_retirement():
    config = default_config()
    chain = [
        Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, imm=1) for _ in range(600)
    ]
    # Constant pc: a single warm icache line, so fetch runs far ahead of
    # the serial dataflow and the window must fill.
    blocks = [line_block(chain[i : i + 8], config, pc=0x1000)
              for i in range(0, 600, 8)]
    result = PipelineModel(config).simulate(ScriptedFetcher(blocks))
    # One ALU op per cycle minimum: total time ~ chain length.
    assert result.cycles >= 600
    # The 512-entry window must fill: fetch stalls appear.
    assert result.bins["stall"] > 0


def test_load_latency_from_dcache():
    config = default_config()
    load = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI)
    load.mem_address = 0x8000
    use = Uop(UopOp.ADD, dst=UReg.EBX, src_a=UReg.EAX, imm=1)
    model = PipelineModel(config)
    model.simulate(ScriptedFetcher([line_block([load, use], config)]))
    assert model.dcache.l1.misses >= 1


def test_store_to_load_dependence():
    config = default_config()
    # Producer -> store -> load -> consumer must serialize.
    producer = Uop(UopOp.MUL, dst=UReg.EAX, src_a=UReg.EAX, imm=3)
    store = Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=UReg.EAX)
    store.mem_address = 0xF000
    load = Uop(UopOp.LOAD, dst=UReg.EBX, src_a=UReg.ESP, imm=-4)
    load.mem_address = 0xF000
    chain = [producer, store, load]
    result = PipelineModel(config).simulate(
        ScriptedFetcher([line_block(chain, config)])
    )
    independent = PipelineModel(config).simulate(
        ScriptedFetcher([line_block([producer.copy(), load.copy()], config)])
    )
    assert result.cycles > 0  # smoke: dependency path exercised


def test_mispredict_penalty_accounted():
    config = default_config()
    branch = Uop(UopOp.BR, cond=None, target=0x2000)
    event = BranchEvent(kind="cond", pc=0x1000, taken=True, target=0x2000)
    block = line_block([branch], config, events={0: event})
    filler = line_block(independent_alu(8), config, pc=0x3000)
    result = PipelineModel(config).simulate(ScriptedFetcher([block, filler]))
    # Cold gshare predicts weakly-taken (correct) but the BTB misses:
    # the paper counts BTB misses in the Mispredict bin.
    assert result.bins["mispred"] >= config.branch_resolution_depth


def test_correct_prediction_no_penalty():
    config = default_config()
    blocks = []
    for i in range(40):
        branch = Uop(UopOp.BR, cond=None, target=0x1000)
        event = BranchEvent(kind="cond", pc=0x1000, taken=True, target=0x1000)
        blocks.append(line_block([branch], config, pc=0x1000, events={0: event}))
    result = PipelineModel(config).simulate(ScriptedFetcher(blocks))
    # After warmup the loop branch predicts perfectly; penalties stop.
    assert result.bins["mispred"] < 3 * config.branch_resolution_depth


def test_cache_switch_wait_cycles():
    config = default_config()
    # icache -> frame (empty) -> icache: two switches.
    blocks = [
        line_block(independent_alu(4), config, pc=0x1000),
        frame_block([], config),
        line_block(independent_alu(4), config, pc=0x2000),
    ]
    result = PipelineModel(config).simulate(ScriptedFetcher(blocks))
    assert result.bins["wait"] == 2 * config.cache_switch_penalty


def test_icache_miss_bins():
    config = default_config()
    blocks = [line_block(independent_alu(4), config, pc=0x100000)]
    result = PipelineModel(config).simulate(ScriptedFetcher(blocks))
    assert result.bins["miss"] > 0


def test_x86_ipc_metric():
    config = default_config()
    blocks = [line_block(independent_alu(8), config, x86_count=8, pc=0x1000 + 64 * i)
              for i in range(20)]
    result = PipelineModel(config).simulate(ScriptedFetcher(blocks))
    assert result.x86_retired == 160
    assert 0 < result.ipc_x86 <= config.retire_width


def test_frame_training_event_charges_no_redirect():
    """A frame's internal transfer trains the predictors through the
    line blocks' update path, but its mispredict costs nothing: inside a
    frame it is an assertion."""
    config = default_config()
    event = BranchEvent(kind="jmpi", pc=0x1010, target=0x7000)

    def run(train_events):
        uops = [
            OptUop(UopOp.ADD, slot=j, src_a=LiveIn(UReg(j % 4)), imm=1)
            for j in range(8)
        ]
        block = frame_block(uops, config, x86_count=4)
        block.train_events = train_events
        model = PipelineModel(config)
        model.simulate(ScriptedFetcher([block]))
        return model

    trained = run([event])
    untrained = run([])
    assert untrained.predictors.btb.predict(event.pc) is None  # a mispredict
    assert trained.result.bins["mispred"] == untrained.result.bins["mispred"] == 0
    assert trained.cycle == untrained.cycle
    assert trained.predictors.btb.predict(event.pc) == event.target
