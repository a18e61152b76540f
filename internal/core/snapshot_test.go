package core

import (
	"strings"
	"testing"

	"repro/internal/progs"
)

// bootWuftpd boots the wu-ftpd victim to its accept loop.
func bootWuftpd(t *testing.T) *Machine {
	t.Helper()
	p, ok := progs.ByName("wuftpd")
	if !ok {
		t.Fatal("wuftpd program missing")
	}
	im, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := BootImage(Config{ProgName: p.Name}, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunToBlock(); err != nil {
		t.Fatal(err)
	}
	return m
}

// onePeer returns m after checking it carries exactly one connection.
func onePeer(t *testing.T, m *Machine, who string) *Machine {
	t.Helper()
	if n := len(m.Peers()); n != 1 {
		t.Fatalf("%s: %d peers, want 1", who, n)
	}
	return m
}

// transact is Machine.Transact on m's single peer, failing on a run error.
func transact(t *testing.T, m *Machine, line string) string {
	t.Helper()
	out, err := m.Transact(m.Peers()[0], line)
	if err != nil {
		t.Fatalf("transact %q: %v", line, err)
	}
	return out
}

// TestForkCarriesOpenConnections: a snapshot taken mid-dialogue forks into
// machines that continue the dialogue on their own copy of the connection,
// whether the guest had accepted it or it was still pending; a boot
// snapshot carries none, and a connection the guest closed is dropped.
func TestForkCarriesOpenConnections(t *testing.T) {
	t.Run("accepted", func(t *testing.T) {
		m := bootWuftpd(t)
		boot, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(boot.Fork().Peers()); n != 0 {
			t.Fatalf("boot snapshot fork carries %d peers, want 0", n)
		}
		ep, err := m.Connect(21)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := m.Transact(ep, ""); err != nil || !strings.Contains(out, "220") {
			t.Fatalf("greeting: %q %v", out, err)
		}
		if out, err := m.Transact(ep, "USER user1\r\n"); err != nil || !strings.Contains(out, "331") {
			t.Fatalf("USER: %q %v", out, err)
		}
		mid, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		a := onePeer(t, mid.Fork(), "fork a")
		b := onePeer(t, mid.Fork(), "fork b")
		if a.Peers()[0] == ep || a.Peers()[0] == b.Peers()[0] {
			t.Fatal("forks share an endpoint with the origin or each other")
		}
		// a's bytes are queued before b runs: b must not see them.
		a.Peers()[0].SendString("PASS alpha\r\n")
		if out := transact(t, b, ""); out != "" {
			t.Fatalf("fork b answered its sibling's input: %q", out)
		}
		if out := transact(t, b, "PASS beta\r\n"); !strings.Contains(out, "230") {
			t.Fatalf("fork b PASS reply %q, want 230", out)
		}
		if out := transact(t, a, ""); strings.Count(out, "230") != 1 {
			t.Fatalf("fork a PASS reply %q, want exactly one 230", out)
		}
		// Neither fork's traffic reached the snapshot or the origin.
		c := onePeer(t, mid.Fork(), "fork c")
		if out := transact(t, c, ""); out != "" {
			t.Fatalf("snapshot carries a fork's input: %q", out)
		}
		if out := ep.RecvString(); out != "" {
			t.Fatalf("origin endpoint received a fork's reply: %q", out)
		}
		if out := transact(t, c, "PASS gamma\r\n"); !strings.Contains(out, "230") {
			t.Fatalf("fork c PASS reply %q, want 230", out)
		}
	})

	t.Run("pending", func(t *testing.T) {
		m := bootWuftpd(t)
		if _, err := m.Connect(21); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		f := onePeer(t, snap.Fork(), "fork")
		if out := transact(t, f, ""); !strings.Contains(out, "220") {
			t.Fatalf("fork of a pending connection: greeting %q, want 220", out)
		}
		if out := m.Peers()[0].RecvString(); out != "" {
			t.Fatalf("origin endpoint received the fork's greeting: %q", out)
		}
	})

	t.Run("closed", func(t *testing.T) {
		m, err := BuildC(Config{}, `
			int main() {
				int fd = socket();
				bind(fd, 7070);
				listen(fd, 2);
				char buf[16];
				int c = accept(fd);
				recv(c, buf, 15, 0);
				close(c);
				c = accept(fd);
				int n = recv(c, buf, 15, 0);
				send(c, buf, n, 0);
				return 0;
			}
		`)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RunToBlock(); err != nil {
			t.Fatal(err)
		}
		first, err := m.Connect(7070)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Transact(first, "bye"); err != nil {
			t.Fatal(err)
		}
		second, err := m.Connect(7070)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Transact(second, ""); err != nil {
			t.Fatal(err)
		}
		if p := m.Peers(); len(p) != 1 || p[0] != second {
			t.Fatalf("origin peers %v, want only the open connection", p)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		f := onePeer(t, snap.Fork(), "fork")
		if out := transact(t, f, "echo"); out != "echo" {
			t.Fatalf("fork continued on the wrong connection: %q", out)
		}
	})
}
