from importlib import resources

import pytest

from bamsim import (
    AdmissionDecision,
    BcConfig,
    ClassificationFailure,
    Classifier,
    Controller,
    Fabric,
    LspRequest,
    Model,
    NetworkState,
    ReconfigEvent,
    ReconfigMode,
    Topology,
    TrafficClass,
    UnknownLsp,
    ValidationError,
    Verdict,
    parse_text,
)
from bamsim import bam, cli

PORT_RULES = [(30000, 30999, 0), (31000, 31999, 1), (32000, 32999, 2)]


def line_topology() -> Topology:
    topo = Topology()
    for h in ("HS1", "HS2", "HS3", "DST"):
        topo.add_host(h)
    for s in ("S1", "S2", "S3"):
        topo.add_switch(s)
    topo.add_link("L1", "HS1", "S1", 500000)
    topo.add_link("L2", "HS2", "S2", 500000)
    topo.add_link("L3", "HS3", "S3", 500000)
    topo.add_link("L4", "S1", "S2", 500000)
    topo.add_link("L5", "S2", "S3", 500000)
    topo.add_link("L6", "S3", "DST", 500000)
    topo.freeze()
    return topo


def mk_controller(model: Model, bc) -> Controller:
    topo = line_topology()
    classes = [TrafficClass(5000), TrafficClass(10000), TrafficClass(20000)]
    state = NetworkState(topo, classes, BcConfig(model, values_kbps=tuple(bc)))
    classifier = Classifier.for_state(state, PORT_RULES)
    return Controller(state, Fabric(topo), classifier)


def request(ctl: Controller, rid: int, src: str, dst_port: int, when: float) -> LspRequest:
    hosts = ctl.state.topology.hosts
    return LspRequest(rid, when, hosts[src], hosts["DST"], 20000 + rid, dst_port)


def packet(src_ip: str, dst_ip: str, dst_port: int) -> LspRequest:
    return LspRequest(1, 0.0, src_ip, dst_ip, 1, dst_port)


def kinds(ctl: Controller):
    return [e["kind"] for e in ctl.journal]


class TestClassifier:
    ROUTES = {("10.0.0.1", "10.0.0.2"): (("L1",), "A", "B")}

    def test_first_matching_port_rule_wins(self):
        # The second rule is shadowed by the wider first one.
        table = Classifier([(30000, 31999, 0), (31000, 31999, 1)], self.ROUTES)
        got = table.classify(packet("10.0.0.1", "10.0.0.2", 31500))
        assert got == (0, ("L1",), "A", "B")

    def test_unmatched_port_fails(self):
        table = Classifier([(30000, 30999, 0)], self.ROUTES)
        with pytest.raises(ClassificationFailure):
            table.classify(packet("10.0.0.1", "10.0.0.2", 50000))

    def test_unknown_ip_pair_fails(self):
        table = Classifier([(30000, 30999, 0)], {})
        with pytest.raises(ClassificationFailure):
            table.classify(packet("10.0.0.1", "10.0.0.9", 30001))

    def test_for_state_precomputes_routes_for_host_pairs(self):
        ctl = mk_controller(Model.MAM, (250000, 150000, 100000))
        hosts = ctl.state.topology.hosts
        ct, path, src, dst = ctl.classifier.classify(packet(hosts["HS1"], hosts["DST"], 30500))
        assert (ct, src, dst) == (0, "HS1", "DST")
        assert path == ("L1", "L4", "L5", "L6")


def test_lsp_request_requires_positive_lifetime(tmp_path, capsys):
    # Requests carry no lifetime; the scenario's lsp_lifetime is checked once.
    text = (resources.files("bamsim") / "scenarios" / "exp1_mam.scn").read_text()
    assert text.count("lsp_lifetime 300") == 1
    for lifetime in ("0", "-5"):
        bad = text.replace("lsp_lifetime 300", "lsp_lifetime " + lifetime)
        with pytest.raises(ValidationError, match="out of range"):
            parse_text(bad)
        path = tmp_path / "bad.scn"
        path.write_text(bad)
        with pytest.raises(SystemExit) as exit:
            cli.main(["validate", str(path)])
        assert exit.value.code == cli.EXIT_BAD_INPUT
        assert "run parameters out of range" in capsys.readouterr().err


class TestHandleRequest:
    def test_grant_reserves_programs_and_logs(self):
        ctl = mk_controller(Model.MAM, (250000, 150000, 100000))
        lsp = ctl.handle_request(request(ctl, 1, "HS1", 30001, 1.0))
        assert lsp is ctl.state.active_lsps[1]
        assert lsp == (1, 0, 5000, lsp.path, "HS1", 1.0)
        assert ctl.state.topology.links["L6"].alloc == [5000, 0, 0]
        assert ctl.fabric.rule_count() == 3
        assert kinds(ctl) == ["request", "admit"]
        assert ctl.state.counters.requested[0] == 1
        assert ctl.state.counters.admitted[0] == 1

    def test_deny_records_drop_and_installs_nothing(self):
        ctl = mk_controller(Model.MAM, (5000, 150000, 100000))
        ctl.handle_request(request(ctl, 1, "HS1", 30001, 1.0))
        denied = request(ctl, 2, "HS2", 30002, 2.0)
        assert ctl.handle_request(denied) is None
        assert list(ctl.state.active_lsps) == [1]
        assert ctl.state.counters.blocked[0] == 1
        assert ctl.fabric.rule_count() == 3  # only the first request's rules
        assert ctl.fabric.drops == [denied]
        assert ctl.fabric.drops[0] is denied  # the request itself, no key string
        assert not any(isinstance(d, str) for d in ctl.fabric.drops)
        assert kinds(ctl) == ["request", "admit", "request", "block"]

    def test_a_deny_from_a_replaced_decide_blocks(self, monkeypatch):
        # The deny test reads the verdict, not the identity of bam's shared
        # decision: a decide wrapped or replaced may build its own.
        ctl = mk_controller(Model.MAM, (250000, 150000, 100000))
        monkeypatch.setattr(bam, "decide", lambda *args: AdmissionDecision(Verdict.DENY))
        denied = request(ctl, 1, "HS1", 30001, 1.0)
        assert ctl.handle_request(denied) is None
        assert kinds(ctl) == ["request", "block"]
        assert ctl.state.active_lsps == {} and ctl.state.counters.admitted == [0, 0, 0]
        assert ctl.state.counters.blocked == [1, 0, 0]
        assert ctl.state.topology.links["L1"].alloc == [0, 0, 0]
        assert ctl.fabric.rule_count() == 0 and ctl.fabric.drops == [denied]

    def test_grant_with_preemption_evicts_victims_first(self):
        ctl = mk_controller(Model.RDM, (500000, 250000, 100000))
        for i in range(1, 101):  # class 0 fills the whole bottleneck
            assert ctl.handle_request(request(ctl, i, "HS1", 30000 + i % 1000, float(i))) is not None
        assert ctl.state.topology.links["L6"].alloc[0] == 500000
        held = dict(ctl.state.active_lsps)
        lsp = ctl.handle_request(request(ctl, 101, "HS2", 31001, 200.0))
        assert lsp is ctl.state.active_lsps[101]
        assert sorted(set(held) - set(ctl.state.active_lsps)) == [99, 100]
        assert ctl.state.active_lsps == {i: held[i] for i in range(1, 99)} | {101: lsp}
        assert ctl.state.counters.preempted[0] == 2
        assert 99 not in ctl.state.active_lsps
        assert ctl.fabric.owner_rules(99) == []
        assert ctl.fabric.owner_rules(101) != []
        preempts = [e for e in ctl.journal if e["kind"] == "preempt"]
        assert [(e["lsp"], e["ct"], e["by"]) for e in preempts] == [(100, 0, 101), (99, 0, 101)]

    def test_unclassifiable_request_raises(self):
        ctl = mk_controller(Model.MAM, (250000, 150000, 100000))
        with pytest.raises(ClassificationFailure):
            ctl.handle_request(request(ctl, 1, "HS1", 99999, 1.0))


class TestHandleExpiry:
    def test_expiry_completes_and_cleans_up(self):
        ctl = mk_controller(Model.MAM, (250000, 150000, 100000))
        ctl.handle_request(request(ctl, 1, "HS1", 30001, 1.0))
        admitted = ctl.state.active_lsps[1]
        lsp = ctl.handle_expiry(1, 301.0)
        assert lsp is admitted
        assert ctl.state.active_lsps == {}
        assert ctl.state.counters.completed[0] == 1
        assert ctl.fabric.rule_count() == 0
        assert ctl.state.topology.links["L6"].alloc == [0, 0, 0]
        assert kinds(ctl) == ["request", "admit", "expire"]

    def test_expiry_of_unknown_lsp_raises(self):
        ctl = mk_controller(Model.MAM, (250000, 150000, 100000))
        ctl.handle_request(request(ctl, 1, "HS1", 30001, 1.0))
        ctl.handle_expiry(1, 301.0)
        with pytest.raises(UnknownLsp):
            ctl.handle_expiry(1, 302.0)


class TestApplyReconfig:
    def test_hard_logs_victims_with_no_preemptor(self):
        ctl = mk_controller(Model.MAM, (350000, 50000, 100000))
        for i in range(1, 63):  # 310 Mbps of class 0
            ctl.handle_request(request(ctl, i, "HS1", 30000 + i, float(i)))
        event = ReconfigEvent(
            ReconfigMode.HARD,
            BcConfig(Model.MAM, values_kbps=(250000, 150000, 100000)),
            at_time=100.0,
        )
        preempted = ctl.apply_reconfig(event, 100.0)
        assert len(preempted) == 12  # 310 -> 250 at 5 Mbps per LSP
        assert ctl.state.topology.links["L6"].alloc[0] == 250000
        preempt_events = [e for e in ctl.journal if e["kind"] == "preempt"]
        assert all(e["by"] is None for e in preempt_events)
        reconfigs = [e for e in ctl.journal if e["kind"] == "reconfig"]
        assert len(reconfigs) == 1
        assert reconfigs[0]["mode"] == "hard"
        assert reconfigs[0]["bc_mbps"] == [250.0, 150.0, 100.0]
        assert sorted(reconfigs[0]["preempted"]) == [v.id for v in sorted(preempted, key=lambda l: l.id)]

    def test_soft_defers_and_promotes_on_expiry(self):
        ctl = mk_controller(Model.MAM, (350000, 50000, 100000))
        for i in range(1, 63):
            ctl.handle_request(request(ctl, i, "HS1", 30000 + i, float(i)))
        event = ReconfigEvent(
            ReconfigMode.SOFT,
            BcConfig(Model.MAM, values_kbps=(250000, 150000, 100000)),
            at_time=100.0,
        )
        assert ctl.apply_reconfig(event, 100.0) == []
        assert ctl.state.counters.preempted == [0, 0, 0]
        assert ctl.state.pending_soft_bc is not None
        assert "promote" not in kinds(ctl)
        for i in range(1, 12):
            ctl.handle_expiry(i, 300.0 + i)
            assert ctl.state.pending_soft_bc is not None
        ctl.handle_expiry(12, 320.0)  # allocation reaches 250: promote
        assert ctl.state.pending_soft_bc is None
        assert ctl.state.bc_config.values_kbps == (250000, 150000, 100000)
        promotes = [e for e in ctl.journal if e["kind"] == "promote"]
        assert len(promotes) == 1
        assert promotes[0]["bc_mbps"] == [250.0, 150.0, 100.0]

    def test_soft_on_a_clear_state_promotes_in_place(self):
        ctl = mk_controller(Model.MAM, (350000, 50000, 100000))
        event = ReconfigEvent(
            ReconfigMode.SOFT,
            BcConfig(Model.MAM, values_kbps=(250000, 150000, 100000)),
            at_time=1.0,
        )
        ctl.apply_reconfig(event, 1.0)
        assert ctl.state.pending_soft_bc is None
        assert ctl.state.bc_config.values_kbps == (250000, 150000, 100000)
        assert kinds(ctl) == ["reconfig", "promote"]
