package udpnet

import (
	"net"
	"syscall"
	"testing"
)

// rcvbuf reads a socket's SO_RCVBUF.
func rcvbuf(t *testing.T, conn *net.UDPConn) int {
	t.Helper()
	raw, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var size int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return size
}

// TestListenSizesReceiveBuffer checks that Listen asks for a receive buffer
// above the kernel default: the handler verifies on the read loop, so
// bursts queue in the kernel.
func TestListenSizesReceiveBuffer(t *testing.T) {
	plain, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	def := rcvbuf(t, plain)
	plain.Close()

	book, err := LoopbackBook(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Listen(0, book, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if got := rcvbuf(t, ep.conn); got <= def {
		t.Fatalf("SO_RCVBUF = %d, want above the kernel default %d", got, def)
	} else {
		t.Logf("SO_RCVBUF = %d (kernel default %d)", got, def)
	}
}
